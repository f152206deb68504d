// Package ssw implements the Spin-Steal-Wait loop (paper §4.0.2).
//
// When a Pure rank blocks — waiting for a message, a collective phase, or a
// task chunk — it does not sleep.  It spins on the blocking condition and,
// between probes, attempts to steal one chunk of any Pure Task that is open
// for stealing on its node, so idle cycles are soaked up by useful work.
// Every blocking site of the runtime goes through the one loop here,
// Waiter.Wait.
//
// The paper pins one rank per hardware thread and spins unconditionally.
// This port runs ranks as goroutines, often oversubscribed onto fewer cores
// than ranks, so unbounded spinning would starve the very goroutine being
// waited on.  Wait therefore spins for a bounded budget and then yields to
// the Go scheduler (runtime.Gosched), keeping the lock-free fast paths
// byte-identical while preserving liveness.  The runtime picks the budget
// from how many ranks share the processors: DefaultSpinBudget when each has
// one, less as they are oversubscribed.
//
// A Waiter with a Cell may also park.  That is for conditions completed by a
// socket rather than by another rank's store: after one yield round the
// rank parks on its WakeCell and whoever completes the condition — the
// transport's reader goroutine, a node leader, the abort path — unparks it.
// A timer remains only as the cadence at which a parked rank still steals,
// checks for poison and makes progress on one-sided traffic.  A Waiter
// without a Cell never parks: its completer is another spinning rank, and a
// park there costs more than the whole wait (a park that blocks costs
// 7–10 µs on a 2-vCPU host, where a spin answers a 2 µs wait in 2.4 µs).
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

// A parking wait's cadence.  A wait whose condition did not come true within
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

// Waiter is a reusable SSW-Loop bound to one rank's stealer.  Its zero value
// spins and yields, and nothing else.
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
	// for message progress via its helper threads).  A wait in the middle of
	// an operation that nothing of the rank's may re-enter uses a Waiter
	// with neither Steal nor Progress.
	Progress func()
	// Cell, if non-nil, is where the wait parks and where completers unpark
	// it; the owner shares it before it starts waiting.  Several Waiters of
	// one rank may share a Cell.  Without one Wait never parks: nobody could
	// wake it.
	Cell *WakeCell
}

// Wait blocks until cond returns true, stealing task chunks while it waits.
// This is the loop the paper uses "in dozens of places in the Pure runtime":
//
//	for !cond() { if couldn't steal { maybe yield } }
//
// A successful steal resets the spin budget, because running a chunk was
// forward progress (and took long enough that re-probing immediately is
// cheap relative to the work done); in a parking wait it also resets the
// cadence.
//
// With a Cell, the wait parks after one yield round without progress.  That
// is the wait for conditions completed by background I/O — an inter-node
// frame delivered by a transport reader goroutine.  Pure yield-spinning
// starves the Go netpoller: goroutines that Gosched in a loop keep the run
// queues non-empty, so no P ever parks in network poll and socket readiness
// is only discovered by sysmon's ~10ms fallback.  With the rank parked its P
// goes idle, the netpoller hands the frame to the reader goroutine, and the
// reader — having published the delivery — unparks the rank (see WakeCell
// for why no wake-up is lost).  One yield round, not several: each round
// holds the P the reader needs, and a rank that yielded once has already
// let every runnable goroutine go first.  A park that times out runs the
// hooks and parks again.
//
// Wait never evaluates cond again once it has returned true: a condition
// may do the thing it waits for.
func (w *Waiter) Wait(cond func() bool) {
	if cond() {
		return
	}
	budget := w.SpinBudget
	if budget <= 0 {
		budget = DefaultSpinBudget
	}
	// From here to the return a parking rank counts as waiting, spinning or
	// parked: a completer that finds it so knows it is about to act on the
	// completion.  A wait nested in this one (a progress hook that blocks)
	// restores it.  A spinning wait leaves the word alone: link readers load
	// it, and a store per shared-memory wait would bounce its line.
	cell := w.Cell
	var outer uint32
	if cell != nil {
		outer = cell.state.Swap(cellWaiting)
	}
	spins, rounds := 0, 0
	var timeout time.Duration // the next park's; zero until a park
	for {
		if w.Steal != nil && w.Steal.TrySteal() {
			spins, rounds, timeout = 0, 0, 0
		} else if spins++; spins >= budget {
			spins = 0
			if w.Poison != nil {
				if err := w.Poison(); err != nil {
					panic(AbortPanic{Err: err})
				}
			}
			if w.Progress != nil {
				w.Progress()
			}
			if cell == nil || rounds < idleYieldRounds {
				rounds++
				runtime.Gosched()
			} else {
				timeout = max(timeout, ParkMin)
				done, woken := cell.Park(cond, timeout)
				if done {
					break
				}
				if !woken {
					timeout = min(2*timeout, ParkMax)
				}
			}
		}
		if cond() {
			break
		}
	}
	if cell != nil {
		cell.state.Store(outer)
	}
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
	cellRunning = iota // outside any parking wait
	cellWaiting        // inside a parking wait, probing
	cellParked         // inside a parking wait, blocked or about to block
)

// NewWakeCell returns an empty cell.
func NewWakeCell() *WakeCell { return &WakeCell{sig: make(chan struct{}, 1)} }

// Wake is what a completer calls after publishing what the owner may be
// waiting for.  It unparks the owner if it is parked (or about to block) and
// reports whether the owner is inside a parking wait at all: if so it is about to
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
