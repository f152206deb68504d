package ssw

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The parking wait (a Waiter with a Cell) and its WakeCell.  A park that only
// a Wake may end uses a timeout of never: a lost wake-up is then a hung test,
// not a timeout that hides it.

const never = 24 * time.Hour

// parkTimeouts fixes the park timeout for one test.
func parkTimeouts(t *testing.T, d time.Duration) {
	lo, hi := ParkMin, ParkMax
	ParkMin, ParkMax = d, d
	t.Cleanup(func() { ParkMin, ParkMax = lo, hi })
}

// completer answers requests from one waiter: it spins until the waiter
// publishes request i, publishes completion i, and wakes the cell — the
// publish-then-Wake order every completer of an idle wait follows.
type completer struct {
	cell      *WakeCell
	req, done atomic.Int64
}

func startCompleter(t *testing.T) *completer {
	c := &completer{cell: NewWakeCell()}
	stop := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := int64(1); ; i++ {
			for c.req.Load() < i {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			c.done.Store(i)
			c.cell.Wake()
		}
	}()
	t.Cleanup(func() { close(stop); <-finished })
	return c
}

func TestWaitIdleTrueConditionTouchesNothing(t *testing.T) {
	w := &Waiter{
		Poison:   func() error { t.Fatal("poison consulted on fast path"); return nil },
		Progress: func() { t.Fatal("progress run on fast path") },
	}
	probes := 0
	w.Wait(func() bool { probes++; return true })
	if probes != 1 {
		t.Fatalf("%d probes, want one", probes)
	}
	w.Cell = NewWakeCell()
	w.Wait(func() bool { return true })
	if c := w.Cell; c.state.Load() != cellRunning || c.Parks != 0 || len(c.sig) != 0 {
		t.Fatalf("a satisfied wait touched its cell: %+v", c)
	}
}

// Every round trip is a race between the owner's publish-recheck-block and
// the completer's publish-load-signal.  With the timer out of the picture
// the owner must get through all of them.  Parking straight away (no spin,
// no yield) is what puts the two sequences on top of each other.
func TestParkNoLostWakeup(t *testing.T) {
	iters := int64(100000)
	if testing.Short() {
		iters = 10000
	}
	c := startCompleter(t)
	cell := c.cell
	for i := int64(1); i <= iters; i++ {
		c.req.Store(i)
		for cond := func() bool { return c.done.Load() >= i }; !cond(); {
			cell.Park(cond, never)
		}
	}
	t.Logf("%d waits: %d blocked, %d woken", iters, cell.Parks, cell.Wakes)
	if cell.Timeouts != 0 || cell.Parks != cell.Wakes {
		t.Fatalf("parks %d, wakes %d, timeouts %d: a park was not ended by a wake", cell.Parks, cell.Wakes, cell.Timeouts)
	}
	if cell.Parks < iters/100 {
		t.Fatalf("only %d of %d waits blocked: the race was not exercised", cell.Parks, iters)
	}
}

// The same through Wait, spin and yield round included.
func TestWaitIdleWokenByCompleter(t *testing.T) {
	parkTimeouts(t, never)
	c := startCompleter(t)
	w := &Waiter{SpinBudget: 1, Cell: c.cell}
	for i := int64(1); i <= 10000; i++ {
		c.req.Store(i)
		w.Wait(func() bool { return c.done.Load() >= i })
	}
	if cell := c.cell; cell.Timeouts != 0 || cell.state.Load() != cellRunning {
		t.Fatalf("timeouts %d, state %d after the last wait", cell.Timeouts, cell.state.Load())
	}
}

func TestWakeReportsWaitingOwner(t *testing.T) {
	c := NewWakeCell()
	if c.Wake() {
		t.Fatal("Wake reported a running owner as waiting")
	}
	if len(c.sig) != 0 {
		t.Fatal("Wake left a token for an owner that is not parked")
	}
	w := &Waiter{SpinBudget: 1, Cell: c}
	var sawWaiting, sawToken bool
	probes := 0
	w.Wait(func() bool {
		if probes++; probes == 2 { // inside the wait, probing: waiting, but no token needed
			sawWaiting, sawToken = c.Wake(), len(c.sig) != 0
		}
		return probes >= 3
	})
	if !sawWaiting || sawToken {
		t.Fatalf("Wake on a probing owner: reported %v, left token %v; want true, false", sawWaiting, sawToken)
	}
}

// A token left behind for a park that had already ended costs the next park
// one immediate return and one extra probe; the wake-up that matters still
// arrives.
func TestWaitIdleStaleToken(t *testing.T) {
	parkTimeouts(t, never)
	c := startCompleter(t)
	c.cell.sig <- struct{}{} // stale: nobody is parked
	w := &Waiter{SpinBudget: 1, Cell: c.cell}
	if done, woken := c.cell.Park(func() bool { return false }, never); done || !woken {
		t.Fatalf("a park that found a token reported done %v, woken %v", done, woken)
	}
	if c.cell.Parks != 1 || c.cell.Wakes != 1 {
		t.Fatalf("stale token: parks %d wakes %d, want 1 and 1", c.cell.Parks, c.cell.Wakes)
	}
	c.req.Store(1)
	w.Wait(func() bool { return c.done.Load() >= 1 })
	if c.cell.Timeouts != 0 {
		t.Fatal("the real wake-up was lost behind the stale token")
	}
}

// A condition may do the thing it waits for (a send retried until the link
// takes it), so once it has returned true it is not asked again — wherever in
// the loop that happened: at a probe, or at the re-check inside Park.
func TestWaitIdleAsksNoMoreOnceTrue(t *testing.T) {
	parkTimeouts(t, 20*time.Microsecond) // nobody wakes this owner
	for trueAt := 1; trueAt <= 6; trueAt++ {
		w := &Waiter{SpinBudget: 1, Cell: NewWakeCell()}
		probes := 0
		w.Wait(func() bool { probes++; return probes >= trueAt })
		if probes != trueAt {
			t.Fatalf("a condition true at probe %d was probed %d times", trueAt, probes)
		}
		if trueAt == 3 && w.Cell.Parks != 0 {
			t.Fatal("probe 3 is meant to be Park's re-check, but the owner blocked")
		}
	}
}

// A wait in the middle of an operation that nothing of the rank's may
// re-enter (a frame that holds its place in a flow, waiting for room on the
// link) uses a second Waiter on the rank's Cell with neither Steal nor
// Progress.  Nested in the rank's own parking wait — its progress hook
// blocks — it parks and is unparked like any parking wait, restores the
// outer wait's state when it returns, runs no hooks, and poison unwinds it.
func TestWaitQuietRunsNoHooks(t *testing.T) {
	parkTimeouts(t, 20*time.Microsecond)
	c := startCompleter(t)
	s := &flakyStealer{}
	quiet := &Waiter{SpinBudget: 1, Cell: c.cell}
	inQuiet := false
	w := &Waiter{SpinBudget: 1, Cell: c.cell, Steal: s}
	w.Progress = func() {
		if inQuiet {
			t.Error("progress hook ran in a quiet wait")
		}
		inQuiet = true
		for i := c.req.Load() + 1; i <= 1000; i++ {
			c.req.Store(i)
			quiet.Wait(func() bool { return c.done.Load() >= i })
			if st := c.cell.state.Load(); st != cellWaiting {
				t.Fatalf("state %d after a nested wait, want the outer wait's %d", st, cellWaiting)
			}
		}
		inQuiet = false
	}
	attempts := 0
	w.Wait(func() bool { attempts = s.attempts; return c.done.Load() >= 1000 })
	if st := c.cell.state.Load(); st != cellRunning {
		t.Fatalf("state %d after the outer wait, want %d", st, cellRunning)
	}
	if s.attempts != attempts {
		t.Fatalf("%d steal attempts inside the quiet waits", s.attempts-attempts)
	}
	// Nobody completes the last wait: it parks until poison unwinds it.
	poisoned := errors.New("runtime aborted")
	quiet.Poison = func() error {
		if c.cell.Timeouts >= 3 {
			return poisoned
		}
		return nil
	}
	defer func() {
		if ap, ok := recover().(AbortPanic); !ok || ap.Err != poisoned {
			t.Fatalf("recovered %v, want AbortPanic{poisoned}", ap)
		}
	}()
	quiet.Wait(func() bool { return false })
	t.Fatal("the quiet wait returned instead of unwinding")
}

type flakyStealer struct {
	attempts int
	succeed  func() bool
}

func (s *flakyStealer) TrySteal() bool { s.attempts++; return s.succeed != nil && s.succeed() }

// Nobody wakes this waiter: the park timer is what keeps it stealing, making
// progress and checking for poison, which finally unwinds it.
func TestWaitIdleTimeoutRunsHooks(t *testing.T) {
	poisoned := errors.New("runtime aborted")
	s := &flakyStealer{}
	progress := 0
	parkTimeouts(t, 50*time.Microsecond)
	w := &Waiter{SpinBudget: 2, Steal: s, Progress: func() { progress++ }, Cell: NewWakeCell()}
	w.Poison = func() error {
		if w.Cell.Timeouts >= 5 {
			return poisoned
		}
		return nil
	}
	func() {
		defer func() {
			if ap, ok := recover().(AbortPanic); !ok || ap.Err != poisoned {
				t.Fatalf("recovered %v, want AbortPanic{poisoned}", ap)
			}
		}()
		w.Wait(func() bool { return false })
		t.Fatal("Wait returned instead of unwinding")
	}()
	c := w.Cell
	if c.Timeouts < 5 || c.Wakes != 0 || c.Parks != c.Timeouts {
		t.Fatalf("parks %d wakes %d timeouts %d", c.Parks, c.Wakes, c.Timeouts)
	}
	// One yield boundary before the first park, one after each timeout.
	if want := int(c.Timeouts) + 1; progress != want || s.attempts < 2*want {
		t.Fatalf("%d progress calls and %d steal attempts over %d boundaries", progress, s.attempts, want)
	}
}

// A steal is progress: the waiter starts over with a yield round instead of
// parking at the next boundary.  Each boundary runs Progress once, so the
// parks seen by consecutive Progress calls stall exactly twice: at the start
// and after the steal.
func TestWaitIdleStealResetsCadence(t *testing.T) {
	var parksSeen []int64
	stolen := false
	parkTimeouts(t, 20*time.Microsecond)
	w := &Waiter{SpinBudget: 2, Cell: NewWakeCell()}
	w.Steal = &flakyStealer{succeed: func() bool {
		if !stolen && w.Cell.Parks == 3 {
			stolen = true
			return true
		}
		return false
	}}
	w.Progress = func() { parksSeen = append(parksSeen, w.Cell.Parks) }
	w.Wait(func() bool { return w.Cell.Parks >= 6 })
	yieldRounds := 0
	for i := 1; i < len(parksSeen); i++ {
		if parksSeen[i] == parksSeen[i-1] {
			yieldRounds++
		}
	}
	if !stolen || yieldRounds != 2 {
		t.Fatalf("stolen %v, boundaries without a park %d (parks seen %v); want 2: the first and the one after the steal", stolen, yieldRounds, parksSeen)
	}
}

func TestParkCycleDoesNotAllocate(t *testing.T) {
	c := startCompleter(t)
	cell := c.cell
	i := int64(0)
	cond := func() bool { return c.done.Load() >= i }
	cycle := func() {
		i++
		c.req.Store(i)
		for !cond() {
			cell.Park(cond, never)
		}
	}
	for k := 0; k < 100; k++ {
		cycle() // the timer exists
	}
	before := cell.Parks
	if avg := testing.AllocsPerRun(5000, cycle); avg != 0 {
		t.Fatalf("%.2f allocs per park/unpark cycle, want 0", avg)
	}
	if cell.Parks-before < 50 {
		t.Fatalf("only %d of 5000 cycles blocked: nothing was measured", cell.Parks-before)
	}
}
