package main

import (
	"fmt"
	"runtime"
	"strings"
)

// layerPass carries one workload's layer pass: after one warm-up and two
// untraced baseline repetitions, (a) one span repetition with
// Config.Metrics on and benchmark-side spans recorded, for the counters and
// the time split, and (b) one obs repetition with only Config.Trace set,
// for the tracing overhead and Report.Analyze().  The workload's layers
// method then adds its standalone ladder rungs.  Nothing here feeds an
// end-to-end metric.
type layerPass struct {
	m     map[string]float64 // per-layer metrics by manifest name
	spans *spanLog
	base  []*repResult // untraced
	span  *repResult   // Config.Metrics + spans
	obs   *repResult   // Config.Trace only
	scale float64
}

// rungOps scales a ladder rung's operation count like the workloads.
func (lp *layerPass) rungOps(n int) int { return scaleInt(n, lp.scale, 1) }

// baseValue is f over the baseline repetitions, aggregated like an
// end-to-end value (see pick).
func (lp *layerPass) baseValue(f func(*repResult) float64) float64 { return pick(lp.base, f) }

// named is the baseline value of one phase metric.
func (lp *layerPass) named(name string) float64 {
	return lp.baseValue(func(r *repResult) float64 { return r.named[name] })
}

// rung runs one ladder rung under a span.
func (lp *layerPass) rung(name string, f func() error) error {
	h := lp.spans.lane(0, "ladder")
	s := h.begin("rung:"+name, noSpan)
	defer h.end(s)
	runtime.GC()
	if err := f(); err != nil {
		return fmt.Errorf("rung %s: %w", name, err)
	}
	return nil
}

// layerRun produces the per-layer metrics of workload i.
func layerRun(i int, seed uint64, scale float64) (*runResult, *spanLog, error) {
	spec := workloads[i]
	w, err := spec.new(seed, scale)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: preparing: %w", spec.name, err)
	}
	lp := &layerPass{m: map[string]float64{}, spans: &spanLog{workload: spec.name}, scale: scale}
	for _, d := range perLayer {
		lp.m[d.Name] = 0 // every name is reported; 0 = the workload bypasses that layer
	}
	cpu0, t0 := cpuSeconds(), now()

	if _, err := repeat(w, obsOpts{}, 1, 0); err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
	}
	if lp.base, err = repeat(w, obsOpts{}, layerBaseReps, 0); err != nil {
		return nil, nil, fmt.Errorf("%s: baseline: %w", spec.name, err)
	}
	runtime.GC()
	if lp.span, err = w.rep(obsOpts{metrics: true, spans: lp.spans, rep: "span"}); err != nil {
		return nil, nil, fmt.Errorf("%s: span repetition: %w", spec.name, err)
	}
	runtime.GC()
	if lp.obs, err = w.rep(obsOpts{trace: true, rep: "obs"}); err != nil {
		return nil, nil, fmt.Errorf("%s: obs repetition: %w", spec.name, err)
	}
	lp.common()
	if err := w.layers(lp); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.name, err)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, elapsed := cpuSeconds()-cpu0, float64(now()-t0)/1e9
	lp.m["proc.cpu_s"] = cpu
	lp.m["proc.cpu_util"] = cpu / elapsed
	lp.m["proc.heap_sys_mb"] = float64(ms.HeapSys) / (1 << 20)
	lp.m["harness.timer_ns"] = timerCost()

	res := &runResult{Workload: spec.name, Seed: seed, Reps: len(lp.base), Metrics: lp.m}
	for _, r := range append(lp.base, lp.span, lp.obs) {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	return res, lp.spans, nil
}

// common fills what every workload reports the same way: its phase
// metrics, the exact counters of the span repetition, and the price of
// observation.
func (lp *layerPass) common() {
	for name := range lp.base[0].named {
		lp.m[name] = lp.named(name)
	}
	lp.m["wall_s"] = lp.baseValue(func(r *repResult) float64 { return r.wallS })
	ops := float64(lp.base[0].ops)
	lp.m["allocs_per_op"] = lp.baseValue(func(r *repResult) float64 { return float64(r.mallocs) }) / ops
	lp.m["proc.alloc_bytes_per_op"] = lp.baseValue(func(r *repResult) float64 { return float64(r.allocBytes) }) / ops
	lp.m["proc.gc_cycles"] = lp.baseValue(func(r *repResult) float64 { return float64(r.gcCycles) })

	st := totalStats(lp.span.reports)
	lp.m["core.sends_eager"] = float64(st.SendsEager)
	lp.m["core.sends_rendezvous"] = float64(st.SendsRendezvous)
	lp.m["core.sends_remote"] = float64(st.SendsRemote)
	lp.m["core.bytes_sent"] = float64(st.BytesSent)
	lp.m["collective.calls"] = float64(st.Barriers + st.Allreduces + st.Reduces + st.Bcasts + st.Gathers + st.Scatters)
	lp.m["ssw.steal_attempts"] = float64(st.StealAttempts)
	lp.m["ssw.steals_succeeded"] = float64(st.StealsSucceeded)
	lp.m["ssw.steal_hit_ratio"] = ratio(float64(st.StealsSucceeded), float64(st.StealAttempts))
	lp.m["sched.chunks_owned"] = float64(st.ChunksOwned)
	lp.m["sched.chunks_stolen"] = float64(st.ChunksStolen)
	lp.m["sched.stolen_frac"] = ratio(float64(st.ChunksStolen), float64(st.ChunksOwned+st.ChunksStolen))
	lp.m["shmem.atomics"] = float64(st.ShmemAtomics)

	// Counters only the metrics registry exports, summed over nodes and,
	// for the per-link series, over peers.
	var frames, linkBytes float64
	for _, rep := range lp.span.reports {
		if rep.Metrics == nil {
			continue
		}
		snap := rep.Metrics.Snapshot()
		for _, c := range snap.Counters {
			v := float64(c.Value)
			switch {
			case c.Name == "pure_pbq_enqueue_full_total":
				lp.m["queue.pbq_enqueue_full"] += v
			case strings.HasPrefix(c.Name, "pure_link_frames_sent_total"):
				frames += v
			case strings.HasPrefix(c.Name, "pure_link_bytes_sent_total"):
				linkBytes += v
			case strings.HasPrefix(c.Name, "pure_link_acks_sent_total"):
				lp.m["transport.acks_sent"] += v
			case strings.HasPrefix(c.Name, "pure_link_retransmits_total"):
				lp.m["transport.retransmits"] += v
			case strings.HasPrefix(c.Name, "pure_link_retry_rounds_total"):
				lp.m["transport.retry_rounds"] += v
			case strings.HasPrefix(c.Name, "pure_link_send_busy_total"):
				lp.m["transport.send_busy"] += v
			}
		}
		for _, g := range snap.Gauges {
			if g.Name == "pure_pbq_depth_max" {
				lp.m["queue.pbq_depth_max"] = max(lp.m["queue.pbq_depth_max"], float64(g.Value))
			}
		}
	}
	lp.m["transport.frames_per_msg"] = ratio(frames, float64(st.SendsRemote))
	lp.m["transport.bytes_per_msg"] = ratio(linkBytes, float64(st.SendsRemote))

	// The obs repetition: what tracing costs on the primary operation, and
	// what the runtime's own analyzer says about blocked and task time.
	lp.m["obs.trace_overhead_ratio"] = ratio(opP50(lp.obs), lp.baseValue(opP50))
	for _, rep := range lp.obs.reports {
		a := rep.Analyze()
		if a == nil {
			continue
		}
		lp.m["obs.trace_events"] += float64(a.Events)
		lp.m["obs.trace_dropped"] += float64(a.Dropped)
		for _, rk := range a.Ranks {
			lp.m["ssw.blocked_s"] += float64(rk.BlockedNs) / 1e9
			lp.m["sched.task_execute_s"] += float64(rk.TaskNs) / 1e9
		}
	}
}

// ratio is a/b, 0 when b is 0 (a layer that did nothing has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// monitorOverhead runs one repetition with the live monitor serving and
// returns its primary-operation median over the baseline's.
func (lp *layerPass) monitorOverhead(w workload) error {
	return lp.rung("monitor", func() error {
		r, err := w.rep(obsOpts{monitor: true, metrics: true, rep: "monitor"})
		if err != nil {
			return err
		}
		lp.m["obs.monitor_overhead_ratio"] = ratio(opP50(r), lp.baseValue(opP50))
		return nil
	})
}
