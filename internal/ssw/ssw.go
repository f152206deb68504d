// Package ssw implements the Spin-Steal-Wait loop (paper §4.0.2).
//
// When a Pure rank blocks — waiting for a message, a collective phase, or a
// task chunk — it does not sleep.  It spins on the blocking condition and,
// between probes, attempts to steal one chunk of any Pure Task that is open
// for stealing on its node, so idle cycles are soaked up by useful work.
//
// The paper pins one rank per hardware thread and spins unconditionally.
// This port runs ranks as goroutines, frequently oversubscribed onto far
// fewer cores (the development host has a single core), so unbounded
// spinning would starve the very goroutine being waited on.  Waiter.Wait
// therefore spins for a bounded budget and then yields to the Go scheduler
// (runtime.Gosched), keeping the lock-free fast paths byte-identical while
// preserving liveness.  The budget is configurable; with enough real cores a
// large budget recovers the paper's pure-spin behaviour.
//
// Conditions completed by a socket rather than by another rank's store go
// through Waiter.WaitIdle, which is event-driven: after one yield round the
// rank parks on its WakeCell and whoever completes the condition — the
// transport's reader goroutine, a node leader, the abort path — unparks it.
// A timer remains only as the cadence at which a parked rank still steals,
// checks for poison and makes progress on one-sided traffic.
package ssw

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/schedpoint"
)

// DefaultSpinBudget is how many condition probes a waiter performs between
// yields when the caller does not specify one.
const DefaultSpinBudget = 64

// WaitIdle's cadence.  A wait whose condition did not come true within
// idleYieldRounds yield boundaries parks; a park nobody ends is ended by a
// timer, so the rank keeps stealing, checking for poison and running its
// progress hook.  The timeout doubles from ParkMin to ParkMax: the short
// first ones bound what a completer that does not unpark (another rank's
// plain store into shared memory, an application condition) costs a short
// wait, the cap is what a long one pays per round.
const idleYieldRounds = 1

// ParkMin and ParkMax are variables for tests only: with a timer that never
// fires, the cells' counters show who ended a park.  Nothing else sets them.
var (
	ParkMin = 32 * time.Microsecond
	ParkMax = 128 * time.Microsecond
)

// Stealer attempts one unit of stolen work and reports whether it stole
// anything.  The Pure Task scheduler implements this; waits outside any
// runtime (tests, mpibase) pass nil.
type Stealer interface {
	TrySteal() bool
}

// AbortPanic is the value Wait panics with when its Poison hook reports that
// the runtime has been aborted.  It unwinds the blocked rank's goroutine
// through application code; the runtime's rank bootstrap recovers it and
// records the rank as unwound-by-abort rather than as a new failure.
type AbortPanic struct{ Err error }

func (a AbortPanic) Error() string { return a.Err.Error() }

// Waiter is a reusable SSW-Loop bound to one rank's stealer.
type Waiter struct {
	// Steal, if non-nil, is probed between condition checks.
	Steal Stealer
	// SpinBudget is the number of probes between yields; zero means
	// DefaultSpinBudget.
	SpinBudget int
	// Poison, if non-nil, is consulted at every yield boundary (so the
	// satisfied-on-first-probe fast path never pays for it).  A non-nil
	// error makes Wait panic with AbortPanic{err}, unwinding the blocked
	// rank: this is how a poisoned runtime reclaims ranks parked in any of
	// the SSW-Loop's "dozens of places" instead of hanging forever.
	Poison func() error
	// Progress, if non-nil, runs at every yield boundary after the poison
	// check.  The runtime uses it to apply incoming one-sided (RMA)
	// operations targeting the blocked rank, so a rank parked in any wait —
	// a receive, a collective, a fence — still exposes its windows and
	// advances remote origins (the paper's runtime makes the same promise
	// for message progress via its helper threads).
	Progress func()
	// Cell is where WaitIdle parks and where completers unpark this waiter.
	// The owner shares it before it starts waiting; when nil, the first
	// WaitIdle that has to park makes one nobody else knows of, and only the
	// timer ends its parks.
	Cell *WakeCell
}

// Wait blocks until cond returns true, stealing task chunks while it waits.
// This is the loop the paper uses "in dozens of places in the Pure runtime":
//
//	for !cond() { if couldn't steal { maybe yield } }
//
// A successful steal resets the spin budget, because running a chunk was
// forward progress (and took long enough that re-probing immediately is
// cheap relative to the work done).
func (w *Waiter) Wait(cond func() bool) {
	budget := w.SpinBudget
	if budget <= 0 {
		budget = DefaultSpinBudget
	}
	spins := 0
	for !cond() {
		if w.Steal != nil && w.Steal.TrySteal() {
			spins = 0 // stole a chunk: that's progress, keep spinning
			continue
		}
		spins++
		if spins >= budget {
			if w.Poison != nil {
				if err := w.Poison(); err != nil {
					panic(AbortPanic{Err: err})
				}
			}
			if w.Progress != nil {
				w.Progress()
			}
			runtime.Gosched()
			spins = 0
		}
	}
}

// WaitIdle is Wait for conditions completed by background I/O — an
// inter-node frame delivered by a transport reader goroutine — rather than
// by another rank's store.  Pure yield-spinning starves the Go netpoller:
// goroutines that Gosched in a loop keep the run queues non-empty, so no P
// ever parks in network poll and socket readiness is only discovered by
// sysmon's ~10ms fallback.  So after one yield round without progress the
// rank parks on its WakeCell: its P goes idle, the netpoller hands the frame
// to the reader goroutine, and the reader — having published the delivery —
// unparks the rank (see WakeCell for why no wake-up is lost).  One yield
// round, not several: each round holds the P the reader needs, and a rank
// that yielded once has already let every runnable goroutine go first.
//
// Shared-memory waits must keep using Wait: their completer is another
// spinning rank that owns (or shares) a hardware thread, the paper's
// assumption, and parking there only adds latency.  Steal, Poison and
// Progress behave exactly as in Wait — a park that times out runs them and
// parks again — and a successful steal resets the cadence: running a chunk
// was progress.
func (w *Waiter) WaitIdle(cond func() bool) { w.waitIdle(cond, false) }

// WaitQuiet is WaitIdle for a wait in the middle of an operation that nothing
// of this rank's may re-enter — a frame that holds its sequence number and
// waits for room on the link.  It parks and checks for poison, but neither
// steals nor runs Progress.
func (w *Waiter) WaitQuiet(cond func() bool) { w.waitIdle(cond, true) }

// waitIdle, like Wait, never evaluates cond again once it has returned true:
// a condition may do the thing it waits for.
func (w *Waiter) waitIdle(cond func() bool, quiet bool) {
	budget := w.SpinBudget
	if budget <= 0 {
		budget = DefaultSpinBudget
	}
	if cond() {
		return
	}
	if w.Cell == nil {
		w.Cell = NewWakeCell()
	}
	// From here to the return the rank counts as waiting, spinning or parked:
	// a completer that finds it so knows it is about to act on the completion.
	// A wait nested in this one (a progress hook that blocks) restores it.
	outer := w.Cell.state.Swap(cellWaiting)
	spins, rounds := 0, 0
	timeout := ParkMin
	for done := false; !done; done = done || cond() {
		if !quiet && w.Steal != nil && w.Steal.TrySteal() {
			spins, rounds, timeout = 0, 0, ParkMin
			continue
		}
		if spins++; spins < budget {
			continue
		}
		spins = 0
		if w.Poison != nil {
			if err := w.Poison(); err != nil {
				panic(AbortPanic{Err: err})
			}
		}
		if !quiet && w.Progress != nil {
			w.Progress()
		}
		if rounds < idleYieldRounds {
			rounds++
			runtime.Gosched()
			continue
		}
		var woken bool
		if done, woken = w.Cell.Park(cond, timeout); !woken {
			timeout = min(2*timeout, ParkMax)
		}
	}
	w.Cell.state.Store(outer)
}

// WakeCell is one waiter's parking spot: a state word and a one-slot signal.
// Exactly one goroutine — the owner — waits on it; any goroutine may Wake it.
//
// No wake-up is lost, by the store-then-load argument on both sides.  The
// owner publishes parked, then re-checks its condition, then blocks; a
// completer publishes what makes the condition true, then loads the state.
// The operations are sequentially consistent atomics, so either the owner's
// re-check sees the completion (it does not block) or the completer sees
// parked (it leaves a token; the slot holds it even if the owner has not
// reached the block yet).  A token left for a park that already ended — the
// re-check caught the completion, or two completers raced — makes the next
// park return at once: one spurious probe of a condition that is then simply
// checked again.
type WakeCell struct {
	state atomic.Uint32 // cellRunning, cellWaiting or cellParked; written by the owner only
	sig   chan struct{}

	// Owner-only from here on.
	timer *time.Timer
	// Parks counts parks that blocked; Wakes those ended by a token, Timeouts
	// those ended by the timer.  The owner reads them itself or hands them
	// over once it has stopped.
	Parks, Wakes, Timeouts int64
}

const (
	cellRunning = iota // outside any WaitIdle
	cellWaiting        // inside WaitIdle, probing
	cellParked         // inside WaitIdle, blocked or about to block
)

// NewWakeCell returns an empty cell.
func NewWakeCell() *WakeCell { return &WakeCell{sig: make(chan struct{}, 1)} }

// Wake is what a completer calls after publishing what the owner may be
// waiting for.  It unparks the owner if it is parked (or about to block) and
// reports whether the owner is inside a WaitIdle at all: if so it is about to
// see the completion and act on it.  With the owner not parked it costs one
// atomic load.
func (c *WakeCell) Wake() bool {
	schedpoint.Point("ssw:wake:load")
	switch c.state.Load() {
	case cellRunning:
		return false
	case cellParked:
		schedpoint.Point("ssw:wake:signal")
		select {
		case c.sig <- struct{}{}:
		default: // a token is already waiting for the owner
		}
	}
	return true
}

// Park blocks the owner until a Wake or for timeout, unless cond holds once
// parked is published.  done reports that it did: the owner never blocked and
// cond has returned true, which it is not asked again.  Otherwise woken says
// whether a Wake ended the park or the timer did, and the caller re-checks
// cond either way.
func (c *WakeCell) Park(cond func() bool, timeout time.Duration) (done, woken bool) {
	schedpoint.Point("ssw:park:publish")
	c.state.Store(cellParked)
	schedpoint.Point("ssw:park:recheck")
	if cond() {
		c.state.Store(cellWaiting)
		return true, true
	}
	schedpoint.Point("ssw:park:block")
	c.Parks++
	if schedpoint.Block(func() bool { return len(c.sig) > 0 }) {
		// Under the checker there is no timer: the owner has waited, as a
		// checker thread, for a token to be in the slot, so a lost wake-up is
		// a deadlock the checker reports, not a timeout that hides it.
		<-c.sig
		woken = true
	} else {
		woken = c.blockTimed(timeout)
	}
	c.state.Store(cellWaiting)
	if woken {
		c.Wakes++
	} else {
		c.Timeouts++
	}
	return false, woken
}

// blockTimed waits for a token or the reused timer, whichever is first.
func (c *WakeCell) blockTimed(timeout time.Duration) bool {
	if c.timer == nil {
		c.timer = time.NewTimer(timeout)
	} else {
		c.timer.Reset(timeout)
	}
	select {
	case <-c.sig:
		if !c.timer.Stop() {
			// Fired meanwhile.  Not a blocking receive: whether the value is
			// in the channel yet depends on the timer implementation in use,
			// and one left behind only ends a later park early.
			select {
			case <-c.timer.C:
			default:
			}
		}
		return true
	case <-c.timer.C:
		return false
	}
}

// Func returns the waiter as a plain wait function, the shape the collective
// structures accept.
func (w *Waiter) Func() func(cond func() bool) { return w.Wait }

// SpinWait is a stealer-less wait used by code that has no task scheduler in
// scope (the MPI baseline, unit tests).
func SpinWait(cond func() bool) {
	(&Waiter{}).Wait(cond)
}
