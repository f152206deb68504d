package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// metricSet holds the few metrics that are registry objects of their own,
// resolved once at launch: a gauge, a histogram, and the two fault counters
// no rank owns.  Every rank-attributable count is a RankStats cell and every
// link count a transport counter; the registry reads both through collector.
type metricSet struct {
	// pbqDepthMax is the high-water mark of eager-queue depth, sampled by
	// senders as they enqueue.
	pbqDepthMax *obs.Gauge
	// stealLatency observes each stolen chunk's execution time.
	stealLatency *obs.Histogram
	// Fault tolerance: runtime aborts (all causes) and watchdog hang dumps.
	aborts *obs.Counter
	hangs  *obs.Counter
}

func newMetricSet(reg *obs.Metrics) *metricSet {
	return &metricSet{
		pbqDepthMax:  reg.Gauge("pure_pbq_depth_max"),
		stealLatency: reg.Histogram("pure_steal_latency_ns", nil),
		aborts:       reg.Counter("pure_aborts_total"),
		hangs:        reg.Counter("pure_watchdog_hangs_total"),
	}
}

// collector is what the runtime registers on the run's registry
// (obs.Metrics.Collect): every snapshot — a live scrape, or Report.Metrics
// after the run — reads the rank cells, the eager queues' enqueue-full totals
// and the transport's link counters where they are kept, at that moment.
// There is no second copy to fall behind: a scrape mid-run sees current
// values, and a snapshot after Run has returned sees the final ones, the
// transport's close-time drain included.
//
// The registry may outlive the run by far, so once the run is over the
// collector holds only the cells and the other sources' final values, not
// the runtime (every queue's slots, every link's buffers).
type collector struct {
	stats []rankCells

	mu      sync.Mutex
	rt      *Runtime // nil once finish has taken the finals below
	pbqFull int64
	links   []obs.LinkState // nil without a transport
}

func (c *collector) collect(s *obs.Sink) {
	for _, row := range rankSeries {
		if row.name == "" {
			continue
		}
		var sum int64
		for i := range c.stats {
			sum += atomic.LoadInt64(row.cell(&c.stats[i].RankStats))
		}
		s.Counter(row.name, sum)
	}
	c.mu.Lock()
	if c.rt != nil {
		c.pbqFull, c.links = c.rt.pbqFull(), c.rt.LinkStates()
	}
	full, links := c.pbqFull, c.links
	c.mu.Unlock()
	s.Counter("pure_pbq_enqueue_full_total", full)
	if links != nil {
		obs.ReportLinks(s, links)
	}
}

// finish runs when Run returns, after the transport has closed.
func (c *collector) finish() {
	c.mu.Lock()
	c.pbqFull, c.links, c.rt = c.rt.pbqFull(), c.rt.LinkStates(), nil
	c.mu.Unlock()
}

// pbqFull sums the eager queues' failed (queue-full) enqueue attempts.
func (rt *Runtime) pbqFull() (full int64) {
	rt.channels.Range(func(_, v any) bool {
		if q := v.(*channel).pbqOnce.Load(); q != nil {
			full += q.Stalls()
		}
		return true
	})
	return full
}

// LinkStates is the transport's per-peer snapshot without this node's own
// (empty) entry — the monitor's /links view; nil without a transport.
func (rt *Runtime) LinkStates() []obs.LinkState {
	if rt.tp == nil {
		return nil
	}
	links, me := rt.tp.Stats(), rt.tp.Node()
	return append(links[:me], links[me+1:]...)
}

// attachObs hooks a freshly built rank into the runtime's observability
// layer: its trace ring and the steal observer that feeds chunk-steal
// latencies to the trace and the registry.
func (r *Rank) attachObs() {
	rt := r.rt
	if rt.cfg.Trace != nil {
		r.trace = rt.cfg.Trace.Rank(r.id)
	}
	// The steal observer also feeds the watchdog: a stolen chunk is forward
	// progress even though the thief stays parked in its Wait, so without
	// the tick a long task execution would read as a global hang.  The hook
	// (two clock reads per successful steal) is only installed when someone
	// consumes it — tracing, metrics, or an armed watchdog.
	if r.trace == nil && rt.met == nil && rt.cfg.HangTimeout == 0 {
		return
	}
	tr, met, slot := r.trace, rt.met, r.slot
	r.thief.Obs = func(ns int64) {
		slot.progress.Add(1)
		if tr != nil {
			tr.EmitDur(obs.KStealSuccess, -1, 1, ns)
		}
		if met != nil {
			met.stealLatency.Observe(ns)
		}
	}
}

// traceStart returns the trace-relative timestamp for an about-to-start span,
// or 0 when tracing is off (callers only use it when tracing is on).
func (r *Rank) traceStart() int64 {
	if r.trace == nil {
		return 0
	}
	return r.trace.Now()
}

// finishColl closes out one collective call's trace span from t0 to now
// (Arg = the SPTD round number, 0 on the large-payload path).
func (r *Rank) finishColl(k obs.Kind, t0, round int64) {
	if r.trace != nil {
		r.trace.EmitSpan(k, -1, round, t0)
	}
}
