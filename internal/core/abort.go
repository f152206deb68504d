package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ssw"
)

// ---- Wait registry ----
//
// Every place a rank blocks in the SSW-Loop publishes a WaitRecord first:
// what the rank is blocked on, the peer it is waiting for, and the channel
// coordinates.  The watchdog reads the records concurrently to build the
// rank-to-rank wait-for graph, and the abort path reads them to report what
// each unwound survivor was blocked on.  Records are immutable once
// published (a fresh record per blocking wait), so a lock-free atomic
// pointer per rank is all the synchronization needed.

// WaitKind classifies what a blocked rank is waiting for.
type WaitKind uint8

// Wait kinds.
const (
	WaitNone       WaitKind = iota
	WaitP2PRecv             // eager receive: waiting for the sender's payload
	WaitP2PSend             // eager send: waiting for the receiver to drain a PBQ slot
	WaitRvzRecv             // rendezvous receive: waiting for the sender's handoff
	WaitRvzSend             // rendezvous send: waiting for the receiver to post an envelope
	WaitRemoteRecv          // inter-node receive: waiting for a mailbox arrival
	WaitCollective          // inside a collective phase (SPTD / PartitionedReducer / leader tree)
	WaitTask                // Task.Execute straggler wait (stolen chunks still running)
	WaitRmaRemote           // one-sided remote op: waiting for target-side application (or a Get reply)
	WaitRmaFence            // window fence: waiting for every member's epoch flag
	WaitRmaPSCW             // PSCW start/wait: waiting for a peer's post/complete flag
	WaitRmaNotify           // NotifyWait: waiting for a window notification counter
	WaitApp                 // Rank.WaitFor: waiting on an application-defined condition
	WaitShmem               // mailbox Recv/Select: waiting for a published ring slot
)

var waitKindNames = [...]string{
	"none", "p2p-recv", "p2p-send", "rendezvous-recv", "rendezvous-send",
	"remote-recv", "collective", "task",
	"rma-remote", "rma-fence", "rma-pscw", "rma-notify", "app-wait",
	"shmem-mailbox",
}

// String returns the kind's stable name (used in diagnostics and exports).
func (k WaitKind) String() string {
	if int(k) < len(waitKindNames) {
		return waitKindNames[k]
	}
	return fmt.Sprintf("WaitKind(%d)", int(k))
}

// waitsOnPeer reports whether the kind blocks on one identifiable peer rank
// (the edges of the wait-for graph).
func (k WaitKind) waitsOnPeer() bool {
	switch k {
	case WaitP2PRecv, WaitP2PSend, WaitRvzRecv, WaitRvzSend, WaitRemoteRecv,
		WaitRmaRemote, WaitRmaPSCW:
		return true
	}
	return false
}

// WaitRecord is one rank's published "what am I blocked on" record.
type WaitRecord struct {
	Kind WaitKind
	Peer int    // global peer rank, -1 when not peer-directed
	Tag  int    // message tag (p2p kinds)
	Comm uint64 // communicator id
	Seq  uint64 // SPTD round / rendezvous ticket
	Op   string // collective op name ("barrier", "allreduce", ...), else ""
	// Since is the wall-clock time the rank blocked (for "blocked for X"
	// diagnostics).
	Since time.Time
}

func (w *WaitRecord) describe() string {
	if w == nil {
		return "running (not blocked in the runtime)"
	}
	var b strings.Builder
	if w.Op != "" {
		fmt.Fprintf(&b, "%s %s", w.Kind, w.Op)
	} else {
		b.WriteString(w.Kind.String())
	}
	if w.Peer >= 0 {
		fmt.Fprintf(&b, " <-> rank %d", w.Peer)
	}
	fmt.Fprintf(&b, " (tag %d, comm %d", w.Tag, w.Comm)
	if w.Seq != 0 {
		fmt.Fprintf(&b, ", seq %d", w.Seq)
	}
	fmt.Fprintf(&b, ", blocked %s)", time.Since(w.Since).Round(time.Millisecond))
	return b.String()
}

// rankWaitSlot is the runtime-owned per-rank observability slot.  It lives in
// a runtime-level array (not on Rank) so the watchdog can scan it even while
// a rank is still bootstrapping, and so a rank that dies in newRank leaves a
// readable slot behind.
type rankWaitSlot struct {
	// waiting is the currently published record; nil means the rank is
	// running application code (or is done).
	waiting atomic.Pointer[WaitRecord]
	// progress counts completed blocking operations and successful steals;
	// the watchdog declares a hang only when the sum over all ranks stops
	// moving.
	progress atomic.Uint64
	// done is set when the rank's main has returned (normally or not).
	done atomic.Bool
	// unwound is set when the rank was forcibly unwound by runtime poisoning
	// rather than returning or failing on its own.
	unwound atomic.Bool
	_       [64]byte
}

// beginWait publishes rec as the rank's blocking state and returns the
// previously published record so nested waits (a collective whose leader
// blocks in p2p leader-tree traffic) can restore it.
func (r *Rank) beginWait(rec *WaitRecord) *WaitRecord {
	rec.Since = time.Now()
	prev := r.slot.waiting.Load()
	r.slot.waiting.Store(rec)
	return prev
}

// endWait restores the previous record and ticks the progress counter.  It is
// deliberately not deferred: when an abort unwinds the rank mid-wait the
// record must survive so diagnostics can say what the rank was blocked on.
func (r *Rank) endWait(prev *WaitRecord) {
	r.slot.waiting.Store(prev)
	r.slot.progress.Add(1)
}

// lazyPublishProbes is how many failed condition probes a wait burns before
// publishing its record.  A wait satisfied while its peer is merely in
// flight (a ping-pong leg, a collective phase) probes a few dozen times;
// 1024 keeps every such wait off the registry while a genuinely blocked
// rank still publishes within microseconds — far inside any usable
// HangTimeout, which is the only consumer of the records.
const lazyPublishProbes = 1024

// lazyWait defers wait-record publication until the wait has proven slow.
// Waits satisfied on the fast path — the common case on the
// latency-critical p2p and collective paths — never touch the registry (no
// allocation, no clock read, no shared stores).  Diagnostics lose nothing:
// a genuinely blocked rank publishes within microseconds (far inside any
// usable HangTimeout), and a wait caught by an abort unwind before its
// threshold publishes its record from the unwind handler, so the failure
// report still names what every rank was blocked on.
type lazyWait struct {
	r         *Rank
	rec       WaitRecord // pending record; copied to the heap only on publish
	prev      *WaitRecord
	probes    int
	published bool
	// idle marks a wait completed by the transport's reader goroutine
	// (inter-node frames over a real socket) rather than by a local rank's
	// store: it selects the netpoller-friendly parking SSW loop.
	idle bool
	// peers are the parking spots of the ranks this one synchronizes with
	// through shared memory inside an idle wait — a bridged collective's
	// node group.  Their waits are completed by this rank's plain stores, so
	// it unparks them itself: entering a wait (whatever it published, it
	// published before) and in finish.
	peers []*ssw.WakeCell
}

// wait runs one SSW wait under the pending record.  A multi-phase caller (a
// collective) may call it repeatedly; the probe count accumulates and the
// record is published at most once.
//
// Live (pre-abort) publication only matters to the hang watchdog, so the
// probe-counting wrapper runs only when HangTimeout is armed; otherwise the
// raw condition goes straight to the SSW loop and the registry costs one
// deferred flag check per wait.  Abort diagnostics are unaffected either
// way: the unwind handler below settles the record as the rank dies.
func (lw *lazyWait) wait(cond func() bool) {
	wakeCells(lw.peers)
	completed := false
	defer func() {
		if !completed {
			// An abort panic is unwinding this wait.
			lw.r.settleUnwoundWait(lw)
		}
	}()
	if lw.published || !lw.r.liveWaitRecords {
		lw.r.sswWait(lw.idle, cond)
	} else {
		lw.r.sswWait(lw.idle, func() bool {
			if cond() {
				return true
			}
			if !lw.published {
				if lw.probes++; lw.probes >= lazyPublishProbes {
					p := new(WaitRecord)
					*p = lw.rec
					lw.prev = lw.r.beginWait(p)
					lw.published = true
				}
			}
			return false
		})
	}
	completed = true
}

// finish closes the record out if it was published.  Like endWait it is
// deliberately not deferred, so an abort unwind leaves the record visible.
func (lw *lazyWait) finish() {
	wakeCells(lw.peers)
	if lw.published {
		lw.r.endWait(lw.prev)
	}
}

// wakeCells unparks whichever of the cells' owners are parked: one atomic
// load for each that is not.
func wakeCells(cells []*ssw.WakeCell) {
	for _, c := range cells {
		c.Wake()
	}
}

// leafWait runs one SSW wait for a leaf blocking site — a p2p or remote
// stall with no waits nested inside it, which is also the latency-critical
// case.  The caller stamps r.pendRec immediately before calling; the
// always-on cost is only those plain stores to rank-owned fields.  When the
// watchdog is armed the condition is wrapped to publish the record after
// lazyPublishProbes failed probes; when a poison unwind catches the wait
// earlier (or the watchdog is off), the nearest lazyWait unwind handler or
// the rank bootstrap settles r.pendRec into the slot instead.
//
// One sacrifice for the cheap stamp: there is no save/restore nesting.  A
// stolen task chunk that itself blocks in communication (legal but rare)
// overwrites the thief's pending record, so an unwind caught between that
// inner wait's completion and the outer wait's is reported without a
// record.  The watchdog path is unaffected — its records are published, not
// pending.
func (r *Rank) leafWait(cond func() bool) { r.leafWaitVia(false, cond) }

// leafWaitIdle is leafWait for conditions completed by the transport's
// reader goroutine (an inter-node frame arriving over a real socket)
// rather than by a rank spinning on this node: it parks, so the netpoller
// gets scheduled, and the reader unparks it.  See ssw.Waiter.WaitIdle.
func (r *Rank) leafWaitIdle(cond func() bool) { r.leafWaitVia(true, cond) }

// sswWait dispatches one condition to the SSW loop, choosing the spin
// (local completion) or parking (socket completion) discipline.  A
// branch rather than a method value on purpose: binding r.wait.Wait to a
// variable allocates, and this dispatcher sits on the zero-allocation
// eager paths.
//
// A rank about to block first flushes its node's links: frames it sent
// behind unacked ones may still be staged for the ack clock (see
// transport.Transport.Flush), and the answer it is about to wait for may
// depend on them; so may an ack a link reader left to this rank when it woke
// it.  tpProgress repeats the flush at every yield boundary, so a rank that
// was woken and parks again has carried that ack.
func (r *Rank) sswWait(idle bool, cond func() bool) {
	if r.rt.tp != nil {
		r.rt.tp.Flush()
	}
	if idle {
		r.wait.WaitIdle(cond)
	} else {
		r.wait.Wait(cond)
	}
}

func (r *Rank) leafWaitVia(idle bool, cond func() bool) {
	r.pendActive = true
	r.pendPublished = false
	if !r.liveWaitRecords {
		r.sswWait(idle, cond)
	} else {
		probes := 0
		var prev *WaitRecord
		r.sswWait(idle, func() bool {
			if cond() {
				return true
			}
			if !r.pendPublished {
				if probes++; probes >= lazyPublishProbes {
					p := new(WaitRecord)
					*p = r.pendRec
					prev = r.beginWait(p)
					r.pendPublished = true
				}
			}
			return false
		})
		if r.pendPublished {
			r.endWait(prev)
		}
	}
	r.pendActive = false
}

// settleUnwoundWait runs while an abort panic unwinds the rank and makes
// sure its most specific interrupted wait ends up published for
// diagnostics.  The innermost handler on the stack (a lazyWait defer, or
// the rank bootstrap when the interrupted wait was a leaf) settles it;
// outer handlers then leave the slot alone.
func (r *Rank) settleUnwoundWait(lw *lazyWait) {
	if r.unwindPublished {
		return
	}
	r.unwindPublished = true
	switch {
	case r.pendActive:
		// A leaf wait was interrupted; its pending record wins over any
		// enclosing collective's.
		if !r.pendPublished {
			p := new(WaitRecord)
			*p = r.pendRec
			r.beginWait(p)
			r.pendPublished = true
		}
	case lw != nil && !lw.published:
		p := new(WaitRecord)
		*p = lw.rec
		r.beginWait(p)
		lw.published = true
	}
}

// ---- Runtime poisoning ----

// Abort causes.
const (
	CausePanic    = "panic"     // a rank panicked
	CauseAbort    = "abort"     // a rank called Rank.Abort
	CauseDeadlock = "deadlock"  // watchdog found a wait-for cycle
	CauseStall    = "stall"     // watchdog found global no-progress without a cycle
	CauseDeadline = "deadline"  // Config.Deadline expired
	CauseNodeDead = "node-dead" // the transport failure detector declared a peer node dead
)

// errPoisoned is what Waiter.Poison returns once the runtime is aborted; the
// detailed diagnosis lives in the abort state and is assembled into the
// *RunError that Run returns.
var errPoisoned = errors.New("core: runtime aborted")

// abortState is the runtime's poison flag plus the first abort's diagnosis
// (first cause wins; later aborts are usually cascades of the first).
type abortState struct {
	flag  atomic.Bool
	mu    sync.Mutex
	cause string
	text  string
	diag  string // multi-line watchdog diagnostic, "" unless the watchdog fired
	cycle []int
	// deadNodes lists peer nodes the transport declared dead or aborted
	// (CauseNodeDead); it accumulates even after the first poison so a
	// multi-node failure names every lost peer.
	deadNodes []int
}

// poison aborts the runtime: the first caller records the cause, every
// subsequent SSW wait observes the flag and unwinds its rank with an
// AbortPanic.  Safe to call from any goroutine, including the watchdog.
func (rt *Runtime) poison(cause, text, diag string, cycle []int) {
	rt.abort.mu.Lock()
	defer rt.abort.mu.Unlock()
	if rt.abort.flag.Load() {
		return
	}
	rt.abort.cause = cause
	rt.abort.text = text
	rt.abort.diag = diag
	rt.abort.cycle = cycle
	rt.abort.flag.Store(true)
	if rt.met != nil {
		rt.met.aborts.Inc()
		if cause == CauseDeadlock || cause == CauseStall {
			rt.met.hangs.Inc()
		}
	}
	// With a real transport attached, tell every peer node this runtime is
	// going down (an abort-flagged Bye) so survivors propagate the failure
	// immediately instead of waiting out their heartbeat detectors.  On a
	// separate goroutine: Abort takes link locks and this path may run from
	// a transport callback already holding them.
	if rt.tp != nil && cause != CauseNodeDead {
		msg := fmt.Sprintf("node %d aborted (%s): %s", rt.tp.Node(), cause, text)
		go rt.tp.Abort(msg, nil)
	}
	// A rank parked in a socket-completed wait unwinds now, not at its next
	// park timeout.
	wakeCells(rt.cells)
}

// tpProgress is the Waiter's progress hook under a real transport: apply
// incoming one-sided operations like rmaProgress, then write what this
// node's links hold back — staged frames and acks left to woken ranks.
func (r *Rank) tpProgress() {
	r.rmaProgress()
	r.rt.tp.Flush()
}

// poisonNodeDead poisons the runtime because a peer node failed (the
// transport's failure detector gave up on it, or it announced its own
// abort).  The node joins the RunError's DeadNodes list even when the
// runtime is already poisoned, so a cascading multi-node failure reports
// every lost peer.
func (rt *Runtime) poisonNodeDead(node int, text string) {
	rt.abort.mu.Lock()
	for _, n := range rt.abort.deadNodes {
		if n == node {
			rt.abort.mu.Unlock()
			return
		}
	}
	rt.abort.deadNodes = append(rt.abort.deadNodes, node)
	rt.abort.mu.Unlock()
	rt.poison(CauseNodeDead, text, "", nil)
}

// abortErr is the Waiter.Poison hook: nil until the runtime is poisoned.
// The un-poisoned fast path is a single atomic load.
func (rt *Runtime) abortErr() error {
	if !rt.abort.flag.Load() {
		return nil
	}
	return errPoisoned
}

// checkPoison unwinds the calling rank if the runtime has been poisoned.
// Blocking loops that cannot go through Waiter.Wait (the rendezvous
// completion-ring push) call it between probes.
func (r *Rank) checkPoison() {
	if err := r.rt.abortErr(); err != nil {
		panic(ssw.AbortPanic{Err: err})
	}
}

// Abort poisons the runtime on behalf of the calling rank and unwinds it.
// Every other rank blocked in the runtime unwinds too, and Run returns a
// *RunError listing this rank as failed.  Abort does not return.
func (r *Rank) Abort(err error) {
	if err == nil {
		err = errors.New("aborted")
	}
	r.rt.poison(CauseAbort, fmt.Sprintf("rank %d called Abort: %v", r.id, err), "", nil)
	panic(rankAbortPanic{err: err})
}

// rankAbortPanic carries a Rank.Abort through the unwind so the bootstrap can
// tell a deliberate abort from an accidental panic.
type rankAbortPanic struct{ err error }

// ---- Run errors ----

// RankFailure names one failed rank and why it failed.
type RankFailure struct {
	Rank   int
	Reason string // panic value or Abort error text
}

// BlockedRank is a surviving rank that was forcibly unwound, with the wait it
// was parked in when the runtime aborted.
type BlockedRank struct {
	Rank int
	Wait *WaitRecord // nil when the rank was running application code
}

// RunError is the structured error Run returns when the runtime aborts
// instead of completing: which ranks failed, what every unwound survivor was
// blocked on, and — when the watchdog fired — the wait-for cycle and its
// multi-line diagnostic dump.
type RunError struct {
	// Cause is one of CausePanic, CauseAbort, CauseDeadlock, CauseStall,
	// CauseDeadline, CauseNodeDead.
	Cause string
	// Text is the one-line summary of the first abort cause.
	Text string
	// Failures lists every rank that panicked or called Abort (all of them,
	// not just the first), ordered by rank.
	Failures []RankFailure
	// Blocked lists the surviving ranks that were unwound mid-wait, ordered
	// by rank.
	Blocked []BlockedRank
	// Cycle is the wait-for cycle the watchdog identified (rank ids, in
	// order; the last waits on the first), or nil.
	Cycle []int
	// DeadNodes lists the peer nodes whose failure caused the abort (set
	// with CauseNodeDead: the transport's failure detector gave up on them
	// or they announced their own abort), ordered by node id.
	DeadNodes []int
	// Diag is the watchdog's full diagnostic dump ("" unless it fired).
	Diag string
}

// maxBlockedLines bounds the per-rank listing in Error() so a 10k-rank abort
// stays readable; the full list is in Blocked.
const maxBlockedLines = 16

// Error renders the multi-line diagnostic.
func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: run aborted (%s): %s", e.Cause, e.Text)
	if len(e.DeadNodes) > 0 {
		b.WriteString("\n  dead nodes:")
		for _, n := range e.DeadNodes {
			fmt.Fprintf(&b, " %d", n)
		}
	}
	if len(e.Cycle) > 0 {
		b.WriteString("\n  wait-for cycle: ")
		for _, r := range e.Cycle {
			fmt.Fprintf(&b, "rank %d -> ", r)
		}
		fmt.Fprintf(&b, "rank %d", e.Cycle[0])
	}
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  rank %d failed: %s", f.Rank, f.Reason)
	}
	for i, s := range e.Blocked {
		if i == maxBlockedLines {
			fmt.Fprintf(&b, "\n  ... and %d more blocked ranks", len(e.Blocked)-i)
			break
		}
		fmt.Fprintf(&b, "\n  rank %d blocked: %s", s.Rank, s.Wait.describe())
	}
	if e.Diag != "" {
		b.WriteString("\n")
		b.WriteString(e.Diag)
	}
	return b.String()
}

// buildRunError assembles the *RunError after every rank goroutine has
// stopped.  failures is what the rank bootstraps collected; the blocked list
// comes from the wait slots of unwound ranks.
func (rt *Runtime) buildRunError(failures []RankFailure) *RunError {
	sort.Slice(failures, func(a, b int) bool { return failures[a].Rank < failures[b].Rank })
	rt.abort.mu.Lock()
	e := &RunError{
		Cause:    rt.abort.cause,
		Text:     rt.abort.text,
		Failures: failures,
		Cycle:    rt.abort.cycle,
		Diag:     rt.abort.diag,
	}
	if len(rt.abort.deadNodes) > 0 {
		e.DeadNodes = append(e.DeadNodes, rt.abort.deadNodes...)
		sort.Ints(e.DeadNodes)
	}
	rt.abort.mu.Unlock()
	if e.Cause == "" { // failures without runtime poisoning cannot happen, but stay safe
		e.Cause = CausePanic
	}
	if e.Text == "" && len(failures) > 0 {
		e.Text = fmt.Sprintf("rank %d failed: %s", failures[0].Rank, failures[0].Reason)
	}
	for id := range rt.waitSlots {
		s := &rt.waitSlots[id]
		if s.unwound.Load() {
			e.Blocked = append(e.Blocked, BlockedRank{Rank: id, Wait: s.waiting.Load()})
		}
	}
	return e
}

// emitAbortEvent records the rank's forced unwind in its trace ring (the
// ring is single-writer, and this runs on the rank's own goroutine during
// the unwind, so it is the one safe place to emit it).
func (r *Rank) emitAbortEvent() {
	if r == nil || r.trace == nil {
		return
	}
	peer := int32(-1)
	var arg int64
	if w := r.slot.waiting.Load(); w != nil {
		if w.Peer >= 0 {
			peer = int32(w.Peer)
		}
		arg = int64(w.Kind)
	}
	r.trace.Emit(obs.KAbortUnwind, peer, arg)
}
