package core

import (
	"repro/internal/obs"
	"repro/internal/transport"
)

// metricSet pre-resolves the runtime's metric handles once at launch so the
// instrumented hot paths never touch the registry's map or lock.  All fields
// are shared across ranks (obs counters are padded atomics); when metrics
// are disabled every instrumentation site reduces to one nil check.
type metricSet struct {
	reg *obs.Metrics

	// Point-to-point posts and bytes, by protocol path.
	sendsEager, sendsRvz, sendsRemote *obs.Counter
	recvsEager, recvsRvz, recvsRemote *obs.Counter
	bytesEager, bytesRvz, bytesRemote *obs.Counter
	bytesReceived                     *obs.Counter

	// PureBufferQueue backpressure: blocking sends that found the queue full
	// (live), queue-level failed enqueue attempts (harvested at run end), and
	// the high-water mark of sampled queue depth.
	pbqStallWaits  *obs.Counter
	pbqEnqueueFull *obs.Counter
	pbqDepthMax    *obs.Gauge

	// Rendezvous single-copy handoffs completed by senders.
	rvzHandoffs *obs.Counter

	// Collective calls entered (counted once per rank per call).
	barriers, reduces, allreduces, bcasts *obs.Counter

	// SSW-Loop stealing: per-steal chunk execution latency (live) and the
	// attempt/success totals (harvested from the per-rank thieves at run end).
	stealLatency  *obs.Histogram
	stealAttempts *obs.Counter
	steals        *obs.Counter

	// Parks of socket-completed waits and how they ended (harvested from the
	// ranks' wake cells at run end, like the steal totals).
	parks, parkWakes, parkTimeouts *obs.Counter

	// Pure Task executions and the chunks thieves took from them.
	tasks        *obs.Counter
	chunksStolen *obs.Counter

	// Fault tolerance: runtime aborts (all causes) and watchdog hang dumps.
	// Link-level loss and recovery are the transport's counters (pure_tp_*,
	// harvested at run end).
	aborts *obs.Counter
	hangs  *obs.Counter

	// One-sided (RMA) operations: posts and bytes by kind, fence epochs,
	// notifications, frames shipped between nodes, and payload copies into
	// window memory (an intra-node Put is exactly one copy — the metric the
	// zero-copy tests assert on).
	rmaPuts          *obs.Counter
	rmaGets          *obs.Counter
	rmaAccs          *obs.Counter
	rmaFences        *obs.Counter
	rmaNotifies      *obs.Counter
	rmaBytes         *obs.Counter
	rmaPutCopies     *obs.Counter
	rmaRemotePackets *obs.Counter
}

func newMetricSet(reg *obs.Metrics) *metricSet {
	return &metricSet{
		reg:            reg,
		sendsEager:     reg.Counter("pure_sends_eager_total"),
		sendsRvz:       reg.Counter("pure_sends_rendezvous_total"),
		sendsRemote:    reg.Counter("pure_sends_remote_total"),
		recvsEager:     reg.Counter("pure_recvs_eager_total"),
		recvsRvz:       reg.Counter("pure_recvs_rendezvous_total"),
		recvsRemote:    reg.Counter("pure_recvs_remote_total"),
		bytesEager:     reg.Counter("pure_bytes_sent_eager_total"),
		bytesRvz:       reg.Counter("pure_bytes_sent_rendezvous_total"),
		bytesRemote:    reg.Counter("pure_bytes_sent_remote_total"),
		bytesReceived:  reg.Counter("pure_bytes_received_total"),
		pbqStallWaits:  reg.Counter("pure_pbq_stall_waits_total"),
		pbqEnqueueFull: reg.Counter("pure_pbq_enqueue_full_total"),
		pbqDepthMax:    reg.Gauge("pure_pbq_depth_max"),
		rvzHandoffs:    reg.Counter("pure_rendezvous_handoffs_total"),
		barriers:       reg.Counter("pure_barriers_total"),
		reduces:        reg.Counter("pure_reduces_total"),
		allreduces:     reg.Counter("pure_allreduces_total"),
		bcasts:         reg.Counter("pure_bcasts_total"),
		stealLatency:   reg.Histogram("pure_steal_latency_ns", nil),
		stealAttempts:  reg.Counter("pure_steal_attempts_total"),
		steals:         reg.Counter("pure_steals_total"),
		parks:          reg.Counter("pure_ssw_parks_total"),
		parkWakes:      reg.Counter("pure_ssw_park_wakes_total"),
		parkTimeouts:   reg.Counter("pure_ssw_park_timeouts_total"),
		tasks:          reg.Counter("pure_tasks_executed_total"),
		chunksStolen:   reg.Counter("pure_chunks_stolen_total"),

		aborts: reg.Counter("pure_aborts_total"),
		hangs:  reg.Counter("pure_watchdog_hangs_total"),

		rmaPuts:          reg.Counter("pure_rma_puts_total"),
		rmaGets:          reg.Counter("pure_rma_gets_total"),
		rmaAccs:          reg.Counter("pure_rma_accumulates_total"),
		rmaFences:        reg.Counter("pure_rma_fences_total"),
		rmaNotifies:      reg.Counter("pure_rma_notifies_total"),
		rmaBytes:         reg.Counter("pure_rma_bytes_total"),
		rmaPutCopies:     reg.Counter("pure_rma_put_copies_total"),
		rmaRemotePackets: reg.Counter("pure_rma_remote_packets_total"),
	}
}

// countSend records one send post on the metrics registry.
func (m *metricSet) countSend(kind reqKind, n int) {
	switch kind {
	case reqSendEager:
		m.sendsEager.Inc()
		m.bytesEager.Add(int64(n))
	case reqSendRvz:
		m.sendsRvz.Inc()
		m.bytesRvz.Add(int64(n))
	case reqRemoteSend:
		m.sendsRemote.Inc()
		m.bytesRemote.Add(int64(n))
	}
}

// harvestObs folds the counters that are only cheap to read after the ranks
// have stopped — queue-level enqueue-full totals and the rank-owned steal and
// park counts, the same cells RankStats reports — into the metrics registry.
func (rt *Runtime) harvestObs(ranks []*Rank) {
	m := rt.met
	if m == nil {
		return
	}
	var stalls int64
	rt.channels.Range(func(_, v any) bool {
		ch := v.(*channel)
		if q := ch.pbqOnce.Load(); q != nil {
			stalls += q.Stalls()
		}
		return true
	})
	m.pbqEnqueueFull.Add(stalls)
	for _, r := range ranks {
		if r == nil {
			continue
		}
		st := r.Stats()
		m.stealAttempts.Add(st.StealAttempts)
		m.steals.Add(st.StealsSucceeded)
		m.parks.Add(st.Parks)
		m.parkWakes.Add(st.ParkWakes)
		m.parkTimeouts.Add(st.ParkTimeouts)
	}
	if rt.tp != nil {
		var agg transport.LinkStats
		var dead int64
		for _, ls := range rt.tp.Stats() {
			agg.FramesSent += ls.FramesSent
			agg.FramesRecv += ls.FramesRecv
			agg.BytesSent += ls.BytesSent
			agg.BytesRecv += ls.BytesRecv
			agg.Retransmits += ls.Retransmits
			agg.DupsDropped += ls.DupsDropped
			agg.OooDropped += ls.OooDropped
			agg.Reconnects += ls.Reconnects
			agg.DropsInjected += ls.DropsInjected
			agg.DelaysInjected += ls.DelaysInjected
			agg.SendBusy += ls.SendBusy
			if ls.Dead {
				dead++
			}
		}
		m.reg.Counter("pure_tp_frames_sent_total").Add(agg.FramesSent)
		m.reg.Counter("pure_tp_frames_recv_total").Add(agg.FramesRecv)
		m.reg.Counter("pure_tp_bytes_sent_total").Add(agg.BytesSent)
		m.reg.Counter("pure_tp_bytes_recv_total").Add(agg.BytesRecv)
		m.reg.Counter("pure_tp_retransmits_total").Add(agg.Retransmits)
		m.reg.Counter("pure_tp_dups_dropped_total").Add(agg.DupsDropped)
		m.reg.Counter("pure_tp_ooo_dropped_total").Add(agg.OooDropped)
		m.reg.Counter("pure_tp_reconnects_total").Add(agg.Reconnects)
		m.reg.Counter("pure_tp_drops_injected_total").Add(agg.DropsInjected)
		m.reg.Counter("pure_tp_delays_injected_total").Add(agg.DelaysInjected)
		m.reg.Counter("pure_tp_send_busy_total").Add(agg.SendBusy)
		m.reg.Counter("pure_tp_dead_peers_total").Add(dead)
	}
	if rt.linkMet != nil {
		// Final sync of the per-peer labeled mirror, so offline metric dumps
		// (no scrape ever happened) still carry the link telemetry.
		rt.linkMet.sync()
	}
}

// attachObs hooks a freshly built rank into the runtime's observability
// layer: its trace ring, the shared metric set, and the steal observer that
// feeds chunk-steal latencies to both.
func (r *Rank) attachObs() {
	rt := r.rt
	if rt.cfg.Trace != nil {
		r.trace = rt.cfg.Trace.Rank(r.id)
	}
	r.met = rt.met
	// The steal observer also feeds the watchdog: a stolen chunk is forward
	// progress even though the thief stays parked in its Wait, so without
	// the tick a long task execution would read as a global hang.  The hook
	// (two clock reads per successful steal) is only installed when someone
	// consumes it — tracing, metrics, or an armed watchdog.
	if r.trace == nil && r.met == nil && rt.cfg.HangTimeout == 0 {
		return
	}
	tr, met, slot := r.trace, r.met, r.slot
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

// finishColl closes out one collective call: a trace span from t0 to now
// (Arg = the SPTD round number, 0 on the large-payload path) plus the
// per-collective counter.
func (r *Rank) finishColl(k obs.Kind, t0, round int64) {
	if r.trace != nil {
		r.trace.EmitSpan(k, -1, round, t0)
	}
	if m := r.met; m != nil {
		switch k {
		case obs.KBarrier:
			m.barriers.Inc()
		case obs.KReduce:
			m.reduces.Inc()
		case obs.KAllreduce:
			m.allreduces.Inc()
		case obs.KBcast:
			m.bcasts.Inc()
		}
	}
}
