// Package obs is the runtime observability layer: a low-overhead event
// tracer and a metrics registry, with exporters for JSON, the Prometheus
// text exposition format, and the Chrome trace_event format (loadable in
// chrome://tracing and Perfetto).
//
// The paper ships "special debugging and profiling modes to assist in
// application development" (§4.0.1); this package is the analogue for the Go
// runtime.  It is designed so that the instrumented code paths in
// internal/core, internal/queue, internal/collective and internal/sched cost
// a single nil-check when observability is disabled:
//
//	if r.trace != nil { r.trace.Emit(...) }
//
// Tracing uses one single-writer ring buffer of fixed-size Event records per
// rank (no locks, no allocation on the record path; the newest events win
// when the ring wraps).  Metrics are shared atomics that may be snapshotted
// at any time, including while a program is running.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/layout"
)

// Kind identifies what an Event records.
type Kind uint8

// Event kinds.  P2P kinds are instant events stamped when the operation is
// posted; PBQStall, the collectives, StealSuccess and TaskExecute are spans
// (Dur > 0 possible).
const (
	// KSendEager is an eager (PureBufferQueue) send post; Arg = bytes.
	KSendEager Kind = iota
	// KSendRendezvous is a rendezvous send post; Arg = bytes.
	KSendRendezvous
	// KSendRemote is an inter-node send; Arg = bytes.
	KSendRemote
	// KRecvEager is an eager receive completion; Arg = bytes.
	KRecvEager
	// KRecvRendezvous is a rendezvous receive completion; Arg = bytes.
	KRecvRendezvous
	// KRecvRemote is an inter-node receive completion; Arg = bytes.
	KRecvRemote
	// KPBQStall is a blocking send that found the PureBufferQueue full;
	// Dur is the time until a slot freed, Arg = bytes.
	KPBQStall
	// KRendezvousHandoff is the sender-side single-copy handoff of a
	// rendezvous payload into the receiver's posted buffer; Arg = bytes.
	KRendezvousHandoff
	// KBarrier / KReduce / KAllreduce / KBcast are collective calls; Dur is
	// the caller's time inside the collective and Arg is the SPTD round
	// number on the small-payload path (0 on the large-payload path).
	KBarrier
	KReduce
	KAllreduce
	KBcast
	// KStealSuccess is one successful SSW-Loop steal; Dur is the time spent
	// executing the stolen allocation.
	KStealSuccess
	// KTaskExecute is one Task.Execute call; Dur is the execution time and
	// Arg the chunk count.
	KTaskExecute
	// KAbortUnwind records a rank being forcibly unwound by runtime
	// poisoning (watchdog, Abort, panic containment); Peer is the peer the
	// rank was blocked on (-1 if none) and Arg the numeric wait kind.
	KAbortUnwind
	// KRmaPut is a one-sided Put post; Peer is the target, Arg = bytes.
	KRmaPut
	// KRmaGet is a one-sided Get post; Peer is the target, Arg = bytes.
	KRmaGet
	// KRmaAcc is a one-sided Accumulate post; Peer is the target, Arg = bytes.
	KRmaAcc
	// KRmaFence is one rank's fence call; Dur is the time spent completing
	// outstanding operations and waiting for the epoch, Arg the fence round.
	KRmaFence

	kindCount
)

var kindNames = [kindCount]string{
	"SendEager", "SendRendezvous", "SendRemote",
	"RecvEager", "RecvRendezvous", "RecvRemote",
	"PBQStall", "RendezvousHandoff",
	"Barrier", "Reduce", "Allreduce", "Bcast",
	"StealSuccess", "TaskExecute", "AbortUnwind",
	"RmaPut", "RmaGet", "RmaAcc", "RmaFence",
}

// String returns the kind's stable name (used in exports).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Category returns the trace category the kind belongs to (p2p, queue,
// collective, sched), used as the Chrome trace "cat" field.
func (k Kind) Category() string {
	switch k {
	case KPBQStall, KRendezvousHandoff:
		return "queue"
	case KBarrier, KReduce, KAllreduce, KBcast:
		return "collective"
	case KStealSuccess, KTaskExecute:
		return "sched"
	case KAbortUnwind:
		return "runtime"
	case KRmaPut, KRmaGet, KRmaAcc, KRmaFence:
		return "rma"
	default:
		return "p2p"
	}
}

// Event is one fixed-size trace record.  Timestamps are nanoseconds since
// the owning Trace was created (monotonic clock).
type Event struct {
	TS   int64 // start time, ns since trace start
	Dur  int64 // span duration in ns; 0 for instant events
	Arg  int64 // kind-specific payload (bytes, round, chunks)
	Rank int32 // recording rank
	Peer int32 // peer rank for p2p kinds, -1 otherwise
	Kind Kind
}

// DefaultRankEvents is the per-rank ring capacity used when the caller does
// not specify one (fixed cost: 40 B/event ≈ 2.5 MiB per rank).
const DefaultRankEvents = 1 << 16

// Trace owns one event ring per rank.  Create it with NewTrace before the
// run, hand it to the runtime, and read it back with Events after the ranks
// have finished (the rings are single-writer and unsynchronized, so a merged
// read is only well-defined once the writers have stopped).
type Trace struct {
	start time.Time
	ranks []RankTrace

	metaMu sync.Mutex
	meta   TraceMeta
	hasMet bool
}

// NewTrace builds a tracer for nranks ranks with perRankEvents ring slots
// each (0 means DefaultRankEvents).  The per-rank capacity rounds up to a
// power of two so the record path can mask the write cursor instead of
// dividing by the capacity.
func NewTrace(nranks, perRankEvents int) *Trace {
	if nranks <= 0 {
		panic(fmt.Sprintf("obs: NewTrace nranks must be positive, got %d", nranks))
	}
	if perRankEvents <= 0 {
		perRankEvents = DefaultRankEvents
	}
	perRankEvents = ceilPow2(perRankEvents)
	t := &Trace{start: time.Now(), ranks: make([]RankTrace, nranks)}
	for i := range t.ranks {
		t.ranks[i] = RankTrace{
			rank:  int32(i),
			start: t.start,
			buf:   make([]Event, perRankEvents),
			mask:  uint64(perRankEvents - 1),
		}
	}
	return t
}

// StartUnixNano returns the wall clock at the trace's relative time zero.
func (t *Trace) StartUnixNano() int64 { return t.start.UnixNano() }

// SetMeta attaches recording-time context (node identity, rank placement,
// clock samples, transport link events) carried into the binary dump.  The
// runtime calls it once, after the ranks have stopped; StartUnixNano is
// filled by the trace itself.
func (t *Trace) SetMeta(m TraceMeta) {
	t.metaMu.Lock()
	t.meta = m
	t.hasMet = true
	t.metaMu.Unlock()
}

// Meta returns the attached metadata, with StartUnixNano always filled; a
// trace with no SetMeta call reports an unknown node (-1).
func (t *Trace) Meta() TraceMeta {
	t.metaMu.Lock()
	m := t.meta
	has := t.hasMet
	t.metaMu.Unlock()
	if !has {
		m = TraceMeta{Node: -1}
	}
	m.StartUnixNano = t.start.UnixNano()
	return m
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ringCounts is the single home of the ring wraparound arithmetic: given a
// write cursor of n total events ever recorded into a ring of the given
// capacity, it returns how many events are retained and how many were
// overwritten.  RankTrace.Len and Trace.Dropped both derive from it.
func ringCounts(n uint64, capacity int) (retained int, dropped int64) {
	if n <= uint64(capacity) {
		return int(n), 0
	}
	return capacity, int64(n - uint64(capacity))
}

// NRanks returns the number of per-rank rings.
func (t *Trace) NRanks() int { return len(t.ranks) }

// Rank returns rank i's ring.  Exactly one goroutine (the rank itself) may
// record into it.
func (t *Trace) Rank(i int) *RankTrace { return &t.ranks[i] }

// Now returns the trace-relative timestamp in nanoseconds.
func (t *Trace) Now() int64 { return int64(time.Since(t.start)) }

// Len returns the total number of retained events across all ranks.
func (t *Trace) Len() int {
	n := 0
	for i := range t.ranks {
		n += t.ranks[i].Len()
	}
	return n
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Trace) Dropped() int64 {
	var d int64
	for i := range t.ranks {
		rt := &t.ranks[i]
		_, dropped := ringCounts(rt.n, len(rt.buf))
		d += dropped
	}
	return d
}

// Events returns every retained event, merged across ranks and sorted by
// start time.  Call only after the recording ranks have stopped.
func (t *Trace) Events() []Event {
	out := make([]Event, 0, t.Len())
	for i := range t.ranks {
		out = append(out, t.ranks[i].Events()...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].TS != out[b].TS {
			return out[a].TS < out[b].TS
		}
		return out[a].Rank < out[b].Rank
	})
	return out
}

// RankTrace is one rank's single-writer event ring.  Only the owning rank
// may call Emit/EmitSpan/Now; any goroutine may read Events after the writer
// has stopped.  The struct is padded on both sides so adjacent ranks' write
// cursors never share a cacheline: trailing padding alone would still let
// rank i's cursor sit on the same line as rank i+1's leading fields when the
// backing array is not cacheline-aligned.
type RankTrace struct {
	_     layout.Pad
	rank  int32
	start time.Time
	buf   []Event
	mask  uint64 // len(buf)-1; capacity is always a power of two
	n     uint64 // total events ever recorded (write cursor)
	_     layout.Pad
}

// Now returns the trace-relative timestamp in nanoseconds (use as the start
// argument of EmitSpan).
func (rt *RankTrace) Now() int64 { return int64(time.Since(rt.start)) }

// Emit records an instant event.
func (rt *RankTrace) Emit(k Kind, peer int32, arg int64) {
	rt.put(Event{TS: rt.Now(), Arg: arg, Rank: rt.rank, Peer: peer, Kind: k})
}

// EmitSpan records a span event that began at the trace-relative timestamp
// start (obtained from Now) and ends now.
func (rt *RankTrace) EmitSpan(k Kind, peer int32, arg int64, start int64) {
	now := rt.Now()
	rt.put(Event{TS: start, Dur: now - start, Arg: arg, Rank: rt.rank, Peer: peer, Kind: k})
}

// EmitDur records a span event that ended now and lasted dur nanoseconds
// (for callers that measured the duration themselves).
func (rt *RankTrace) EmitDur(k Kind, peer int32, arg int64, dur int64) {
	now := rt.Now()
	rt.put(Event{TS: now - dur, Dur: dur, Arg: arg, Rank: rt.rank, Peer: peer, Kind: k})
}

func (rt *RankTrace) put(e Event) {
	rt.buf[rt.n&rt.mask] = e
	rt.n++
}

// Len returns the number of retained events (≤ ring capacity).
func (rt *RankTrace) Len() int {
	retained, _ := ringCounts(rt.n, len(rt.buf))
	return retained
}

// Events returns the retained events in record order (oldest first).
func (rt *RankTrace) Events() []Event {
	out := make([]Event, 0, rt.Len())
	if rt.n <= uint64(len(rt.buf)) {
		return append(out, rt.buf[:rt.n]...)
	}
	head := rt.n & rt.mask // oldest retained slot
	out = append(out, rt.buf[head:]...)
	out = append(out, rt.buf[:head]...)
	return out
}
