// Package analyze is the offline trace-analytics engine: it consumes the
// event stream the runtime observability layer records (internal/obs) and
// derives the answers the raw timeline only implies — which send paired with
// which receive and how long the message took per protocol path, how skewed
// each collective round was and who the stragglers are, which channel pairs
// suffer PureBufferQueue backpressure, how task chunks were balanced by the
// SSW-Loop, where each rank's time went, and a critical-path estimate across
// matched message edges.
//
// The paper ships "special debugging and profiling modes to assist in
// application development" (§4.0.1); this package is the analysis half of
// that story for the Go runtime.  It is deliberately decoupled from the
// runtime: the input is a plain []obs.Event (live from Report.Timeline or
// read back from a binary dump via obs.ReadTraceBin), so traces can be
// analyzed on a different machine than the one that recorded them.
package analyze

import (
	"sort"

	"repro/internal/obs"
)

// Path identifies a message-protocol path.
type Path string

// Protocol paths.
const (
	PathEager      Path = "eager"      // intra-node PureBufferQueue
	PathRendezvous Path = "rendezvous" // intra-node single-copy handoff
	PathRemote     Path = "remote"     // inter-node transport
)

// Options tunes an analysis run.
type Options struct {
	// NodeOf maps a rank to its node.  It keeps collective-round grouping
	// correct on multi-node traces (SPTD rounds are per node); nil places
	// every rank on node 0.
	NodeOf func(rank int32) int
	// MaxUnmatched caps the individually listed unmatched operations
	// (totals are always exact); 0 means 64.
	MaxUnmatched int
	// Partial marks a per-node dump from a multi-process run: the trace holds
	// only the ranks of node Node, so a remote-path operation whose peer rank
	// lives on another node (per NodeOf) can never find its counterpart here.
	// Those are classified as cross-node traffic (PathStats.CrossSends /
	// CrossRecvs) instead of being reported unmatched.  After `puretrace
	// merge` rejoins the per-node dumps, Partial is off again and cross-node
	// messages match normally.
	Partial bool
	// Node is the recording node of a Partial dump.
	Node int
	// Links carries the transport-level frame events (TraceMeta.Links); when
	// present the analysis adds per-direction link flows, matching send and
	// receive frames on sequence number across nodes.
	Links []obs.LinkEvent
}

// Hist is a fixed-bound latency histogram plus exact min/max/sum, the same
// bucket model as obs.Histogram but analyzer-local (no atomics).
type Hist struct {
	Bounds []int64 `json:"bounds"` // ascending inclusive upper bounds
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is +Inf
	N      int64   `json:"n"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

func newHist() *Hist {
	return &Hist{
		Bounds: obs.LatencyBuckets,
		Counts: make([]int64, len(obs.LatencyBuckets)+1),
	}
}

func (h *Hist) observe(v int64) {
	i := sort.Search(len(h.Bounds), func(i int) bool { return v <= h.Bounds[i] })
	h.Counts[i]++
	h.Sum += v
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.N++
}

// Mean returns the mean observation, 0 when empty.
func (h *Hist) Mean() int64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / h.N
}

// Quantile returns an upper bound on the q-quantile (the bucket boundary the
// quantile falls under; Max for the +Inf bucket), 0 when empty.
func (h *Hist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	want := int64(q * float64(h.N))
	if float64(want) < q*float64(h.N) {
		want++ // ceiling: p99 of 4 samples needs all 4, not 3
	}
	if want < 1 {
		want = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= want {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// PathStats aggregates message matching over one protocol path.
type PathStats struct {
	Path           Path `json:"path"`
	Sends          int  `json:"sends"`
	Recvs          int  `json:"recvs"`
	Matched        int  `json:"matched"`
	UnmatchedSends int  `json:"unmatched_sends"`
	UnmatchedRecvs int  `json:"unmatched_recvs"`
	// CrossSends / CrossRecvs count operations whose peer rank lives on a
	// different node than the recorder of a partial (per-node) dump: the
	// counterpart event is in some other node's dump, so they are cross-node
	// traffic, not evidence of a hang.  Always 0 unless Options.Partial.
	CrossSends int   `json:"cross_sends,omitempty"`
	CrossRecvs int   `json:"cross_recvs,omitempty"`
	Bytes      int64 `json:"bytes"` // matched payload bytes
	Latency    *Hist `json:"latency"`
	// QueueWaitNs / TransferNs decompose the rendezvous path using the
	// sender's handoff timestamps: send post -> handoff start (waiting for
	// the receiver's posted buffer) and handoff -> receive completion (the
	// copy plus the byte-count signal).  Zero on the other paths, which emit no
	// intermediate event.
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	TransferNs  int64 `json:"transfer_ns,omitempty"`
}

// PairStats aggregates matched traffic for one (src, dst, path) channel
// bundle.
type PairStats struct {
	Src     int32 `json:"src"`
	Dst     int32 `json:"dst"`
	Path    Path  `json:"path"`
	Matched int   `json:"matched"`
	Bytes   int64 `json:"bytes"`
	Latency *Hist `json:"latency"`
}

// Unmatched is one send without a matching receive (or vice versa) — listed,
// not silently dropped, because unmatched operations are the classic
// symptom of a hang or a ring-wraparound loss.
type Unmatched struct {
	Op    string `json:"op"` // "send" or "recv"
	Path  Path   `json:"path"`
	Src   int32  `json:"src"`
	Dst   int32  `json:"dst"`
	Bytes int64  `json:"bytes"`
	TS    int64  `json:"ts"`
}

// RoundSkew is one collective round's arrival analysis across the ranks that
// recorded it.
type RoundSkew struct {
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
	Round int64  `json:"round"`
	// Large marks the large-payload path, where the runtime records no SPTD
	// round; Round is then the per-rank occurrence index of the call.
	Large bool `json:"large,omitempty"`
	Ranks int  `json:"ranks"` // participants seen in the trace
	// ArrivalSpreadNs is lastArrival - firstArrival: how long the earliest
	// rank sat in the collective before the last one showed up.
	ArrivalSpreadNs int64 `json:"arrival_spread_ns"`
	FirstTS         int64 `json:"first_ts"`
	LastRank        int32 `json:"last_rank"` // last to arrive (the straggler)
	MaxDurNs        int64 `json:"max_dur_ns"`
	SlowestRank     int32 `json:"slowest_rank"` // longest time inside the call
}

// Straggler ranks one rank's contribution to collective imbalance.
type Straggler struct {
	Rank int32 `json:"rank"`
	// LastArrivals counts rounds this rank was the last to arrive at.
	LastArrivals int `json:"last_arrivals"`
	// LatenessNs sums this rank's arrival delay behind each round's first
	// arrival, over all rounds it took part in.
	LatenessNs int64 `json:"lateness_ns"`
}

// CollectiveStats is the cross-round collective skew summary.
type CollectiveStats struct {
	Calls        int         `json:"calls"`  // collective span events seen
	Rounds       []RoundSkew `json:"rounds"` // chronological
	Stragglers   []Straggler `json:"stragglers"`
	MeanSpreadNs int64       `json:"mean_spread_ns"`
	MaxSpreadNs  int64       `json:"max_spread_ns"`
}

// StallPair is one sender→receiver pair's PureBufferQueue backpressure.
type StallPair struct {
	Src     int32 `json:"src"`
	Dst     int32 `json:"dst"`
	Stalls  int   `json:"stalls"`
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// RankBreakdown is one rank's time and work accounting.
type RankBreakdown struct {
	Rank   int32 `json:"rank"`
	Events int   `json:"events"`
	// WallNs spans the rank's first event start to its last event end.
	WallNs int64 `json:"wall_ns"`
	// BlockedNs sums the recorded runtime-wait spans: PBQ stalls,
	// collectives, and RMA fences.  (P2P waits record no span, so this is a
	// lower bound on blocked time.)
	BlockedNs int64 `json:"blocked_ns"`
	// TaskNs / TasksExecuted / TaskChunks cover the rank's own Task.Execute
	// calls; StealNs / ChunksStolen cover work it stole while blocked.
	TaskNs        int64 `json:"task_ns"`
	TasksExecuted int   `json:"tasks_executed"`
	TaskChunks    int64 `json:"task_chunks"`
	StealNs       int64 `json:"steal_ns"`
	ChunksStolen  int64 `json:"chunks_stolen"`
	// OtherNs = Wall - Blocked - Task, clamped at 0: application compute
	// outside tasks plus untraced waits.
	OtherNs int64 `json:"other_ns"`
	Sends   int   `json:"sends"`
	Recvs   int   `json:"recvs"`
}

// RankShare is one rank's time on the critical path.
type RankShare struct {
	Rank int32 `json:"rank"`
	Ns   int64 `json:"ns"`
}

// CriticalPath is a longest-chain estimate through the trace: starting from
// the last event to finish, it walks backwards, hopping a matched message
// edge whenever the receiver was provably waiting on the sender (its
// previous local event ended before the send was even posted) and staying on
// the rank otherwise.
type CriticalPath struct {
	LengthNs  int64 `json:"length_ns"`
	StartRank int32 `json:"start_rank"`
	EndRank   int32 `json:"end_rank"`
	// Hops counts the matched send→recv edges on the path; InFlightNs sums
	// the time the path spent inside those messages.
	Hops       int         `json:"hops"`
	InFlightNs int64       `json:"in_flight_ns"`
	RankNs     []RankShare `json:"rank_ns"` // descending by Ns
}

// Analysis is the full derived report.
type Analysis struct {
	NRanks  int   `json:"nranks"`
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped,omitempty"` // ring losses, when known
	// SpanNs is first event start to last event end across all ranks.
	SpanNs int64 `json:"span_ns"`

	Paths          []*PathStats `json:"paths"`
	Pairs          []*PairStats `json:"pairs"` // descending by bytes
	TotalMatched   int          `json:"total_matched"`
	TotalUnmatched int          `json:"total_unmatched"`
	Unmatched      []Unmatched  `json:"unmatched"` // capped sample; totals exact

	Collectives CollectiveStats `json:"collectives"`
	PBQ         []StallPair     `json:"pbq"` // descending by TotalNs
	Ranks       []RankBreakdown `json:"ranks"`
	Critical    CriticalPath    `json:"critical_path"`

	// Links holds the per-direction transport link flows when the trace
	// carried frame events (Options.Links); nil otherwise.
	Links []*LinkFlow `json:"links,omitempty"`
}

// LinkFlow aggregates one direction of inter-node frame traffic
// (Src node -> Dst node) from the transport's link events.  Send frames are
// recorded by the sender, receive frames by the receiver; after `puretrace
// merge` aligns the node clocks, a frame's send and receive events pair up on
// the link sequence number and Latency holds the one-way frame latency in the
// merged clock domain.  In a single-node dump only one side of each direction
// is present, so Matched stays 0.
type LinkFlow struct {
	Src     int   `json:"src"` // sending node
	Dst     int   `json:"dst"` // receiving node
	Sends   int   `json:"sends"`
	Recvs   int   `json:"recvs"`
	Matched int   `json:"matched"` // frames seen on both sides (seq match)
	Replays int   `json:"replays"` // reconnect replays of the unacked window
	Bytes   int64 `json:"bytes"`   // payload bytes of send frames
	Latency *Hist `json:"latency"`
}

// MatchRate returns the fraction of locally matchable sends that found their
// receive, 1 when the trace holds no such sends.  Cross-node sends in a
// partial dump are excluded: their receives live in another node's dump.
func (a *Analysis) MatchRate() float64 {
	sends := 0
	for _, p := range a.Paths {
		sends += p.Sends - p.CrossSends
	}
	if sends == 0 {
		return 1
	}
	return float64(a.TotalMatched) / float64(sends)
}

// sendPath / recvPath classify an event kind, returning "" for non-message
// kinds.
func sendPath(k obs.Kind) Path {
	switch k {
	case obs.KSendEager:
		return PathEager
	case obs.KSendRendezvous:
		return PathRendezvous
	case obs.KSendRemote:
		return PathRemote
	}
	return ""
}

func recvPath(k obs.Kind) Path {
	switch k {
	case obs.KRecvEager:
		return PathEager
	case obs.KRecvRendezvous:
		return PathRendezvous
	case obs.KRecvRemote:
		return PathRemote
	}
	return ""
}

func isCollective(k obs.Kind) bool {
	switch k {
	case obs.KBarrier, obs.KReduce, obs.KAllreduce, obs.KBcast:
		return true
	}
	return false
}

type pairKey struct {
	src, dst int32
	path     Path
}

// Run analyzes one trace.  events may be in any order (a copy is sorted by
// start time); nranks sizes the per-rank accounting and must cover every
// event's Rank.
func Run(events []obs.Event, nranks int, opt Options) *Analysis {
	if opt.MaxUnmatched == 0 {
		opt.MaxUnmatched = 64
	}
	nodeOf := opt.NodeOf
	if nodeOf == nil {
		nodeOf = func(int32) int { return 0 }
	}
	evs := make([]obs.Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].TS < evs[b].TS })

	a := &Analysis{NRanks: nranks, Events: len(evs)}

	// Per-rank event index lists (sorted order preserved) for the breakdown
	// and the critical-path walk.
	perRank := make([][]int, nranks)
	pos := make([]int, len(evs)) // index of evs[i] within perRank[rank]
	for i, e := range evs {
		r := int(e.Rank)
		if r < 0 || r >= nranks {
			continue
		}
		pos[i] = len(perRank[r])
		perRank[r] = append(perRank[r], i)
	}

	a.matchMessages(evs, opt)
	a.linkFlows(opt.Links)
	a.collectiveSkew(evs, nranks, nodeOf)
	a.backpressure(evs)
	a.breakdown(evs, perRank)
	a.criticalPath(evs, perRank, pos)

	if len(evs) > 0 {
		first := evs[0].TS
		last := first
		for _, e := range evs {
			if end := e.TS + e.Dur; end > last {
				last = end
			}
		}
		a.SpanNs = last - first
	}
	return a
}

// matchMessages pairs send posts with receive completions per (src, dst,
// path) in FIFO order — the runtime's channels are FIFO per (src, dst, tag,
// comm), so per-pair FIFO is exact for single-tag traffic and a tight
// approximation when tags interleave.
func (a *Analysis) matchMessages(evs []obs.Event, opt Options) {
	paths := map[Path]*PathStats{}
	pathFor := func(p Path) *PathStats {
		ps, ok := paths[p]
		if !ok {
			ps = &PathStats{Path: p, Latency: newHist()}
			paths[p] = ps
		}
		return ps
	}
	pairs := map[pairKey]*PairStats{}
	sendQ := map[pairKey][]int{}    // pending send event indices, FIFO
	handoffQ := map[pairKey][]int{} // pending rendezvous handoffs, FIFO

	// In a partial (per-node) dump, an operation whose peer rank lives on
	// another node can never match locally — its counterpart is in that
	// node's dump.  Classify it as cross-node instead of unmatched.
	nodeOf := opt.NodeOf
	if nodeOf == nil {
		nodeOf = func(int32) int { return 0 }
	}
	cross := func(peer int32) bool {
		return opt.Partial && peer >= 0 && nodeOf(peer) != opt.Node
	}

	for i, e := range evs {
		if p := sendPath(e.Kind); p != "" {
			ps := pathFor(p)
			ps.Sends++
			if cross(e.Peer) {
				ps.CrossSends++
				continue
			}
			k := pairKey{src: e.Rank, dst: e.Peer, path: p}
			sendQ[k] = append(sendQ[k], i)
			continue
		}
		if e.Kind == obs.KRendezvousHandoff {
			k := pairKey{src: e.Rank, dst: e.Peer, path: PathRendezvous}
			handoffQ[k] = append(handoffQ[k], i)
			continue
		}
		p := recvPath(e.Kind)
		if p == "" {
			continue
		}
		ps := pathFor(p)
		ps.Recvs++
		if cross(e.Peer) {
			ps.CrossRecvs++
			continue
		}
		k := pairKey{src: e.Peer, dst: e.Rank, path: p}
		q := sendQ[k]
		if len(q) == 0 {
			ps.UnmatchedRecvs++
			a.TotalUnmatched++
			if len(a.Unmatched) < opt.MaxUnmatched {
				a.Unmatched = append(a.Unmatched, Unmatched{
					Op: "recv", Path: p, Src: e.Peer, Dst: e.Rank, Bytes: e.Arg, TS: e.TS,
				})
			}
			continue
		}
		s := evs[q[0]]
		sendQ[k] = q[1:]
		lat := e.TS - s.TS
		if lat < 0 {
			lat = 0
		}
		ps.Matched++
		ps.Bytes += e.Arg
		ps.Latency.observe(lat)
		a.TotalMatched++
		pr, ok := pairs[k]
		if !ok {
			pr = &PairStats{Src: k.src, Dst: k.dst, Path: p, Latency: newHist()}
			pairs[k] = pr
		}
		pr.Matched++
		pr.Bytes += e.Arg
		pr.Latency.observe(lat)
		// Rendezvous decomposition: the sender's handoff event splits the
		// latency into posted-buffer wait and copy/transfer time.
		if p == PathRendezvous {
			if hq := handoffQ[k]; len(hq) > 0 {
				h := evs[hq[0]]
				handoffQ[k] = hq[1:]
				if qw := h.TS - s.TS; qw > 0 {
					ps.QueueWaitNs += qw
				}
				if tr := e.TS - h.TS; tr > 0 {
					ps.TransferNs += tr
				}
			}
		}
	}

	// Whatever is left in the send queues never met a receive.
	for k, q := range sendQ {
		for _, i := range q {
			ps := pathFor(k.path)
			ps.UnmatchedSends++
			a.TotalUnmatched++
			if len(a.Unmatched) < opt.MaxUnmatched {
				e := evs[i]
				a.Unmatched = append(a.Unmatched, Unmatched{
					Op: "send", Path: k.path, Src: k.src, Dst: k.dst, Bytes: e.Arg, TS: e.TS,
				})
			}
		}
	}
	sort.Slice(a.Unmatched, func(x, y int) bool { return a.Unmatched[x].TS < a.Unmatched[y].TS })

	for _, p := range []Path{PathEager, PathRendezvous, PathRemote} {
		if ps, ok := paths[p]; ok {
			a.Paths = append(a.Paths, ps)
		}
	}
	for _, pr := range pairs {
		a.Pairs = append(a.Pairs, pr)
	}
	sort.Slice(a.Pairs, func(x, y int) bool {
		if a.Pairs[x].Bytes != a.Pairs[y].Bytes {
			return a.Pairs[x].Bytes > a.Pairs[y].Bytes
		}
		if a.Pairs[x].Src != a.Pairs[y].Src {
			return a.Pairs[x].Src < a.Pairs[y].Src
		}
		return a.Pairs[x].Dst < a.Pairs[y].Dst
	})
}

// linkFlows aggregates transport frame events into per-direction flows and
// pairs send frames with their receive on (src, dst, seq).  Link sequence
// numbers are per-direction and never reused (reconnects replay the same
// seqs, but the receiver accepts each in-order seq exactly once and only
// accepted frames emit a LinkRecv event), so seq matching is exact.
func (a *Analysis) linkFlows(links []obs.LinkEvent) {
	if len(links) == 0 {
		return
	}
	type dirKey struct{ src, dst int32 }
	type seqKey struct {
		src, dst int32
		seq      uint64
	}
	flows := map[dirKey]*LinkFlow{}
	flowFor := func(k dirKey) *LinkFlow {
		f, ok := flows[k]
		if !ok {
			f = &LinkFlow{Src: int(k.src), Dst: int(k.dst), Latency: newHist()}
			flows[k] = f
		}
		return f
	}
	sent := map[seqKey]int64{} // send timestamp by frame identity
	for _, ev := range links {
		switch ev.Kind {
		case obs.LinkSend:
			k := dirKey{src: ev.Node, dst: ev.Peer}
			f := flowFor(k)
			f.Sends++
			f.Bytes += int64(ev.Bytes)
			sent[seqKey{src: ev.Node, dst: ev.Peer, seq: ev.Seq}] = ev.TS
		case obs.LinkRecv:
			k := dirKey{src: ev.Peer, dst: ev.Node}
			f := flowFor(k)
			f.Recvs++
			if sts, ok := sent[seqKey{src: ev.Peer, dst: ev.Node, seq: ev.Seq}]; ok {
				f.Matched++
				lat := ev.TS - sts
				if lat < 0 {
					lat = 0
				}
				f.Latency.observe(lat)
			}
		case obs.LinkReplay:
			flowFor(dirKey{src: ev.Node, dst: ev.Peer}).Replays++
		}
	}
	for _, f := range flows {
		a.Links = append(a.Links, f)
	}
	sort.Slice(a.Links, func(x, y int) bool {
		if a.Links[x].Src != a.Links[y].Src {
			return a.Links[x].Src < a.Links[y].Src
		}
		return a.Links[x].Dst < a.Links[y].Dst
	})
}

// collectiveSkew groups collective span events into rounds and measures the
// arrival spread within each.  SPTD rounds (Arg > 0) identify the instance
// exactly per node; large-payload calls (Arg == 0) are grouped by per-rank
// occurrence index, which is exact as long as every rank runs the same
// collective sequence (the SPMD common case).
func (a *Analysis) collectiveSkew(evs []obs.Event, nranks int, nodeOf func(int32) int) {
	type groupKey struct {
		kind  obs.Kind
		node  int
		round int64
		large bool
	}
	type member struct {
		rank int32
		ts   int64
		dur  int64
	}
	groups := map[groupKey][]member{}
	order := []groupKey{}
	largeSeq := map[struct {
		kind obs.Kind
		rank int32
	}]int64{}

	for _, e := range evs {
		if !isCollective(e.Kind) {
			continue
		}
		a.Collectives.Calls++
		k := groupKey{kind: e.Kind, node: nodeOf(e.Rank), round: e.Arg}
		if e.Arg == 0 {
			sk := struct {
				kind obs.Kind
				rank int32
			}{e.Kind, e.Rank}
			largeSeq[sk]++
			k.large = true
			k.round = largeSeq[sk]
			k.node = 0 // the large path is node-oblivious (binomial over comm ranks)
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], member{rank: e.Rank, ts: e.TS, dur: e.Dur})
	}

	lateness := make([]int64, nranks)
	lastCount := make([]int, nranks)
	var spreadSum int64
	for _, k := range order {
		ms := groups[k]
		if len(ms) < 2 {
			continue // skew needs at least two participants
		}
		rs := RoundSkew{
			Kind: k.kind.String(), Node: k.node, Round: k.round, Large: k.large,
			Ranks: len(ms), FirstTS: ms[0].ts,
		}
		var firstTS, lastTS, maxDur int64
		for i, m := range ms {
			if i == 0 || m.ts < firstTS {
				firstTS = m.ts
			}
			if i == 0 || m.ts > lastTS {
				lastTS = m.ts
				rs.LastRank = m.rank
			}
			if m.dur > maxDur {
				maxDur = m.dur
				rs.SlowestRank = m.rank
			}
		}
		rs.FirstTS = firstTS
		rs.ArrivalSpreadNs = lastTS - firstTS
		rs.MaxDurNs = maxDur
		for _, m := range ms {
			if int(m.rank) < nranks {
				lateness[m.rank] += m.ts - firstTS
			}
		}
		if int(rs.LastRank) < nranks {
			lastCount[rs.LastRank]++
		}
		spreadSum += rs.ArrivalSpreadNs
		if rs.ArrivalSpreadNs > a.Collectives.MaxSpreadNs {
			a.Collectives.MaxSpreadNs = rs.ArrivalSpreadNs
		}
		a.Collectives.Rounds = append(a.Collectives.Rounds, rs)
	}
	sort.Slice(a.Collectives.Rounds, func(x, y int) bool {
		return a.Collectives.Rounds[x].FirstTS < a.Collectives.Rounds[y].FirstTS
	})
	if n := len(a.Collectives.Rounds); n > 0 {
		a.Collectives.MeanSpreadNs = spreadSum / int64(n)
	}
	for r := 0; r < nranks; r++ {
		if lastCount[r] > 0 || lateness[r] > 0 {
			a.Collectives.Stragglers = append(a.Collectives.Stragglers, Straggler{
				Rank: int32(r), LastArrivals: lastCount[r], LatenessNs: lateness[r],
			})
		}
	}
	sort.Slice(a.Collectives.Stragglers, func(x, y int) bool {
		sx, sy := a.Collectives.Stragglers[x], a.Collectives.Stragglers[y]
		if sx.LastArrivals != sy.LastArrivals {
			return sx.LastArrivals > sy.LastArrivals
		}
		return sx.LatenessNs > sy.LatenessNs
	})
}

// backpressure ranks sender→receiver pairs by PureBufferQueue stall time.
func (a *Analysis) backpressure(evs []obs.Event) {
	type sd struct{ src, dst int32 }
	m := map[sd]*StallPair{}
	for _, e := range evs {
		if e.Kind != obs.KPBQStall {
			continue
		}
		k := sd{e.Rank, e.Peer}
		sp, ok := m[k]
		if !ok {
			sp = &StallPair{Src: e.Rank, Dst: e.Peer}
			m[k] = sp
		}
		sp.Stalls++
		sp.TotalNs += e.Dur
		if e.Dur > sp.MaxNs {
			sp.MaxNs = e.Dur
		}
	}
	for _, sp := range m {
		a.PBQ = append(a.PBQ, *sp)
	}
	sort.Slice(a.PBQ, func(x, y int) bool {
		if a.PBQ[x].TotalNs != a.PBQ[y].TotalNs {
			return a.PBQ[x].TotalNs > a.PBQ[y].TotalNs
		}
		return a.PBQ[x].Src < a.PBQ[y].Src
	})
}

// breakdown computes the per-rank time and work accounting.
func (a *Analysis) breakdown(evs []obs.Event, perRank [][]int) {
	for r, idxs := range perRank {
		rb := RankBreakdown{Rank: int32(r), Events: len(idxs)}
		if len(idxs) > 0 {
			first := evs[idxs[0]].TS
			last := first
			for _, i := range idxs {
				e := evs[i]
				if end := e.TS + e.Dur; end > last {
					last = end
				}
				switch {
				case e.Kind == obs.KPBQStall || isCollective(e.Kind) || e.Kind == obs.KRmaFence:
					rb.BlockedNs += e.Dur
				case e.Kind == obs.KTaskExecute:
					rb.TaskNs += e.Dur
					rb.TasksExecuted++
					rb.TaskChunks += e.Arg
				case e.Kind == obs.KStealSuccess:
					rb.StealNs += e.Dur
					rb.ChunksStolen += e.Arg
				}
				if sendPath(e.Kind) != "" {
					rb.Sends++
				} else if recvPath(e.Kind) != "" {
					rb.Recvs++
				}
			}
			rb.WallNs = last - first
			rb.OtherNs = rb.WallNs - rb.BlockedNs - rb.TaskNs
			if rb.OtherNs < 0 {
				rb.OtherNs = 0
			}
		}
		a.Ranks = append(a.Ranks, rb)
	}
}

// criticalPath walks backwards from the last event to finish.  At a matched
// receive whose rank was locally idle before the send was posted (previous
// local event ended at or before the send), the path hops to the sender;
// otherwise it stays on the rank.  Local time is attributed to ranks,
// in-flight time to the edges.
func (a *Analysis) criticalPath(evs []obs.Event, perRank [][]int, pos []int) {
	if len(evs) == 0 {
		return
	}
	// Re-derive the matched edges (recv event index -> send event index).
	// Matching is FIFO per (src, dst, path) over the same sorted order, so
	// this mirrors matchMessages exactly.
	matched := make(map[int]int)
	sendQ := map[pairKey][]int{}
	for i, e := range evs {
		if p := sendPath(e.Kind); p != "" {
			k := pairKey{src: e.Rank, dst: e.Peer, path: p}
			sendQ[k] = append(sendQ[k], i)
			continue
		}
		if p := recvPath(e.Kind); p != "" {
			k := pairKey{src: e.Peer, dst: e.Rank, path: p}
			if q := sendQ[k]; len(q) > 0 {
				matched[i] = q[0]
				sendQ[k] = q[1:]
			}
		}
	}

	end := func(i int) int64 { return evs[i].TS + evs[i].Dur }
	endIdx := 0
	for i := range evs {
		if end(i) > end(endIdx) {
			endIdx = i
		}
	}

	rankNs := map[int32]int64{}
	cp := &a.Critical
	cp.EndRank = evs[endIdx].Rank
	cur := endIdx
	cursor := end(endIdx)
	start := evs[endIdx].TS

	for steps := 0; steps <= 2*len(evs); steps++ {
		e := evs[cur]
		prevIdx := -1
		if int(e.Rank) >= 0 && int(e.Rank) < len(perRank) && pos[cur] > 0 {
			prevIdx = perRank[e.Rank][pos[cur]-1]
		}
		if sIdx, ok := matched[cur]; ok {
			s := evs[sIdx]
			if (prevIdx < 0 || end(prevIdx) <= s.TS) && s.TS <= e.TS {
				// The receiver was idle before the send was posted: the
				// sender is the critical predecessor.
				rankNs[e.Rank] += cursor - e.TS
				cp.InFlightNs += e.TS - s.TS
				cp.Hops++
				cur = sIdx
				cursor = s.TS
				continue
			}
		}
		if prevIdx < 0 {
			rankNs[e.Rank] += cursor - e.TS
			start = e.TS
			cp.StartRank = e.Rank
			break
		}
		pEnd := end(prevIdx)
		if pEnd > cursor {
			pEnd = cursor // overlapping spans (a stall inside a task)
		}
		rankNs[e.Rank] += cursor - pEnd
		cursor = pEnd
		cur = prevIdx
		start = evs[prevIdx].TS
		cp.StartRank = evs[prevIdx].Rank
	}
	cp.LengthNs = end(endIdx) - start
	for r, ns := range rankNs {
		cp.RankNs = append(cp.RankNs, RankShare{Rank: r, Ns: ns})
	}
	sort.Slice(cp.RankNs, func(x, y int) bool {
		if cp.RankNs[x].Ns != cp.RankNs[y].Ns {
			return cp.RankNs[x].Ns > cp.RankNs[y].Ns
		}
		return cp.RankNs[x].Rank < cp.RankNs[y].Rank
	})
}
