package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Per-peer link telemetry: every transport link's counters mirrored into
// the metrics registry as Prometheus series labeled peer="<node>".  The
// transport keeps its own lock-free atomics on the hot paths; this mirror
// syncs them on demand — at every /metrics scrape (Monitor.SetOnScrape) and
// once at harvest time — so scrapes serve current values while the
// transport pays nothing per frame.
type linkMetrics struct {
	tp    *transport.Transport
	peers []*linkPeerMetrics // indexed by node id; nil for self
}

type linkPeerMetrics struct {
	framesSent, framesRecv *obs.Counter
	bytesSent, bytesRecv   *obs.Counter
	retransmits            *obs.Counter
	retryRounds            *obs.Counter
	reconnects             *obs.Counter
	acksSent, acksRecv     *obs.Counter
	acksDeferred           *obs.Counter
	hbSent, hbRecv         *obs.Counter
	sendBusy, writes       *obs.Counter

	up, queueDepth       *obs.Gauge
	hbAge, rtt, clockOff *obs.Gauge
}

func newLinkMetrics(tp *transport.Transport, reg *obs.Metrics) *linkMetrics {
	lm := &linkMetrics{tp: tp, peers: make([]*linkPeerMetrics, tp.Nodes())}
	for peer := range lm.peers {
		if peer == tp.Node() {
			continue
		}
		l := obs.Label{Key: "peer", Value: strconv.Itoa(peer)}
		lm.peers[peer] = &linkPeerMetrics{
			framesSent:   reg.CounterL("pure_link_frames_sent_total", l),
			framesRecv:   reg.CounterL("pure_link_frames_recv_total", l),
			bytesSent:    reg.CounterL("pure_link_bytes_sent_total", l),
			bytesRecv:    reg.CounterL("pure_link_bytes_recv_total", l),
			retransmits:  reg.CounterL("pure_link_retransmits_total", l),
			retryRounds:  reg.CounterL("pure_link_retry_rounds_total", l),
			reconnects:   reg.CounterL("pure_link_reconnects_total", l),
			acksSent:     reg.CounterL("pure_link_acks_sent_total", l),
			acksRecv:     reg.CounterL("pure_link_acks_recv_total", l),
			acksDeferred: reg.CounterL("pure_link_acks_deferred_total", l),
			hbSent:       reg.CounterL("pure_link_heartbeats_sent_total", l),
			hbRecv:       reg.CounterL("pure_link_heartbeats_recv_total", l),
			sendBusy:     reg.CounterL("pure_link_send_busy_total", l),
			writes:       reg.CounterL("pure_link_writes_total", l),

			up:         reg.GaugeL("pure_link_up", l),
			queueDepth: reg.GaugeL("pure_link_send_queue_depth", l),
			hbAge:      reg.GaugeL("pure_link_heartbeat_age_ns", l),
			rtt:        reg.GaugeL("pure_link_smoothed_rtt_ns", l),
			clockOff:   reg.GaugeL("pure_link_clock_offset_ns", l),
		}
	}
	return lm
}

// sync copies the transport's current per-link snapshot into the labeled
// series.  Counters use Store (the transport values are the monotonic
// truth; repeated syncs must not double-count).
func (lm *linkMetrics) sync() {
	for peer, st := range lm.tp.Stats() {
		pm := lm.peers[peer]
		if pm == nil {
			continue
		}
		pm.framesSent.Store(st.FramesSent)
		pm.framesRecv.Store(st.FramesRecv)
		pm.bytesSent.Store(st.BytesSent)
		pm.bytesRecv.Store(st.BytesRecv)
		pm.retransmits.Store(st.Retransmits)
		pm.retryRounds.Store(st.RetryRounds)
		pm.reconnects.Store(st.Reconnects)
		pm.acksSent.Store(st.AcksSent)
		pm.acksRecv.Store(st.AcksRecv)
		pm.acksDeferred.Store(st.AcksDeferred)
		pm.hbSent.Store(st.HeartbeatsSent)
		pm.hbRecv.Store(st.HeartbeatsRecv)
		pm.sendBusy.Store(st.SendBusy)
		pm.writes.Store(st.Writes)

		up := int64(0)
		if st.Up {
			up = 1
		}
		pm.up.Set(up)
		pm.queueDepth.Set(int64(st.Unacked))
		pm.hbAge.Set(st.HeartbeatAgeNs)
		pm.rtt.Set(st.SmoothedRTTNs)
		pm.clockOff.Set(st.ClockOffsetNs)
	}
}

// LinkStates renders the transport's per-peer snapshot as the monitor's
// /links view (nil without a transport).
func (rt *Runtime) LinkStates() []obs.LinkState {
	if rt.tp == nil {
		return nil
	}
	stats := rt.tp.Stats()
	out := make([]obs.LinkState, 0, len(stats)-1)
	for peer, st := range stats {
		if peer == rt.tp.Node() {
			continue
		}
		out = append(out, obs.LinkState{
			Peer:       peer,
			Up:         st.Up,
			EverUp:     st.EverUp,
			Departed:   st.Departed,
			Dead:       st.Dead,
			DeadReason: st.DeadReason,
			Unacked:    st.Unacked,

			FramesSent:   st.FramesSent,
			FramesRecv:   st.FramesRecv,
			BytesSent:    st.BytesSent,
			BytesRecv:    st.BytesRecv,
			Retransmits:  st.Retransmits,
			RetryRounds:  st.RetryRounds,
			Reconnects:   st.Reconnects,
			AcksSent:     st.AcksSent,
			AcksRecv:     st.AcksRecv,
			AcksDeferred: st.AcksDeferred,
			SendBusy:     st.SendBusy,
			Writes:       st.Writes,

			HeartbeatsSent: st.HeartbeatsSent,
			HeartbeatsRecv: st.HeartbeatsRecv,
			HeartbeatAgeNs: st.HeartbeatAgeNs,
			SmoothedRTTNs:  st.SmoothedRTTNs,
			ClockOffsetNs:  st.ClockOffsetNs,
		})
	}
	return out
}
