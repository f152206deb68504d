package obs

import "strconv"

// LinkState is a point-in-time snapshot of one transport link's state and
// counters: what transport.Transport.Stats returns, what the monitor's
// /links view renders as JSON (and the cluster monitor folds into /cluster),
// and — through linkSeries — what the metrics registry exports.
type LinkState struct {
	Peer       int    `json:"peer"`
	Up         bool   `json:"up"`       // a connection is currently established
	EverUp     bool   `json:"ever_up"`  // a connection has existed at some point
	Departed   bool   `json:"departed"` // peer sent Bye
	Dead       bool   `json:"dead"`     // failure detector gave up on the peer
	DeadReason string `json:"dead_reason,omitempty"`
	Unacked    int    `json:"unacked"` // frames awaiting ack (resend buffer depth)

	FramesSent  int64 `json:"frames_sent"`
	FramesRecv  int64 `json:"frames_recv"`
	BytesSent   int64 `json:"bytes_sent"`
	BytesRecv   int64 `json:"bytes_recv"`
	Retransmits int64 `json:"retransmits"`  // frames re-sent (timeout rounds + reconnect replays)
	RetryRounds int64 `json:"retry_rounds"` // go-back-N retransmit rounds (backoff events)
	DupsDropped int64 `json:"dups_dropped"` // received at or below the delivered watermark
	OooDropped  int64 `json:"ooo_dropped"`  // received past a gap (go-back-N discard)
	Reconnects  int64 `json:"reconnects"`   // successful re-establishments after the first
	AcksSent    int64 `json:"acks_sent"`    // explicit ack frames (piggybacks not counted)
	AcksRecv    int64 `json:"acks_recv"`
	// AcksDeferred counts owed acks the reader left to a woken rank to
	// carry; acks_sent counts the explicit ones written.
	AcksDeferred   int64 `json:"acks_deferred"`
	DropsInjected  int64 `json:"drops_injected"`  // fault plan: first transmissions suppressed
	DelaysInjected int64 `json:"delays_injected"` // fault plan: deliveries delayed
	SendBusy       int64 `json:"send_busy"`       // sends refused by a full resend window
	Writes         int64 `json:"writes"`          // socket writes; frames_sent/writes is the combining factor

	// Clock/latency telemetry from the heartbeat echo exchange; the RTT and
	// offset are zero until the first completed echo round trip.
	HeartbeatsSent int64 `json:"heartbeats_sent"`
	HeartbeatsRecv int64 `json:"heartbeats_recv"`
	HeartbeatAgeNs int64 `json:"heartbeat_age_ns"` // time since anything was heard from the peer
	SmoothedRTTNs  int64 `json:"smoothed_rtt_ns"`  // EWMA of the filtered heartbeat round trip
	ClockOffsetNs  int64 `json:"clock_offset_ns"`  // estimated peer clock minus local clock
}

// linkSeries is the one table from series name to LinkState field.  A
// counter row is exported twice, as pure_link_<name>{peer="p"} per link and
// as pure_tp_<name> summed over the node's links; a gauge row only per link.
// A new link counter is a field above, its atomic in the transport, and a
// row here.
var linkSeries = []struct {
	name  string
	gauge bool
	get   func(*LinkState) int64
}{
	{"frames_sent_total", false, func(l *LinkState) int64 { return l.FramesSent }},
	{"frames_recv_total", false, func(l *LinkState) int64 { return l.FramesRecv }},
	{"bytes_sent_total", false, func(l *LinkState) int64 { return l.BytesSent }},
	{"bytes_recv_total", false, func(l *LinkState) int64 { return l.BytesRecv }},
	{"retransmits_total", false, func(l *LinkState) int64 { return l.Retransmits }},
	{"retry_rounds_total", false, func(l *LinkState) int64 { return l.RetryRounds }},
	{"dups_dropped_total", false, func(l *LinkState) int64 { return l.DupsDropped }},
	{"ooo_dropped_total", false, func(l *LinkState) int64 { return l.OooDropped }},
	{"reconnects_total", false, func(l *LinkState) int64 { return l.Reconnects }},
	{"acks_sent_total", false, func(l *LinkState) int64 { return l.AcksSent }},
	{"acks_recv_total", false, func(l *LinkState) int64 { return l.AcksRecv }},
	{"acks_deferred_total", false, func(l *LinkState) int64 { return l.AcksDeferred }},
	{"drops_injected_total", false, func(l *LinkState) int64 { return l.DropsInjected }},
	{"delays_injected_total", false, func(l *LinkState) int64 { return l.DelaysInjected }},
	{"send_busy_total", false, func(l *LinkState) int64 { return l.SendBusy }},
	{"writes_total", false, func(l *LinkState) int64 { return l.Writes }},
	{"heartbeats_sent_total", false, func(l *LinkState) int64 { return l.HeartbeatsSent }},
	{"heartbeats_recv_total", false, func(l *LinkState) int64 { return l.HeartbeatsRecv }},

	{"up", true, func(l *LinkState) int64 {
		if l.Up {
			return 1
		}
		return 0
	}},
	{"send_queue_depth", true, func(l *LinkState) int64 { return int64(l.Unacked) }},
	{"heartbeat_age_ns", true, func(l *LinkState) int64 { return l.HeartbeatAgeNs }},
	{"smoothed_rtt_ns", true, func(l *LinkState) int64 { return l.SmoothedRTTNs }},
	{"clock_offset_ns", true, func(l *LinkState) int64 { return l.ClockOffsetNs }},
}

// ReportLinks reports one node's links through linkSeries, plus the count of
// links the failure detector gave up on (pure_tp_dead_peers_total).
func ReportLinks(s *Sink, links []LinkState) {
	var dead int64
	for i := range links {
		l := &links[i]
		peer := `{peer="` + strconv.Itoa(l.Peer) + `"}`
		for _, row := range linkSeries {
			v := row.get(l)
			if row.gauge {
				s.Gauge("pure_link_"+row.name+peer, v)
				continue
			}
			s.Counter("pure_link_"+row.name+peer, v)
			s.Counter("pure_tp_"+row.name, v)
		}
		if l.Dead {
			dead++
		}
	}
	s.Counter("pure_tp_dead_peers_total", dead)
}
