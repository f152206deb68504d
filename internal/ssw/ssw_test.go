package ssw

import (
	"errors"
	"sync/atomic"
	"testing"
)

type countingStealer struct {
	available atomic.Int64
	stolen    atomic.Int64
}

func (s *countingStealer) TrySteal() bool {
	for {
		n := s.available.Load()
		if n == 0 {
			return false
		}
		if s.available.CompareAndSwap(n, n-1) {
			s.stolen.Add(1)
			return true
		}
	}
}

func TestWaitReturnsImmediatelyWhenConditionHolds(t *testing.T) {
	w := &Waiter{}
	called := 0
	w.Wait(func() bool { called++; return true })
	if called != 1 {
		t.Fatalf("condition evaluated %d times, want 1", called)
	}
}

func TestWaitStealsWhileBlocked(t *testing.T) {
	s := &countingStealer{}
	s.available.Store(10)
	w := &Waiter{Steal: s}
	probes := 0
	w.Wait(func() bool {
		probes++
		return probes > 5 // becomes true after a few probes
	})
	if s.stolen.Load() == 0 {
		t.Error("waiter never stole despite available work")
	}
}

func TestWaitWithoutStealerTerminates(t *testing.T) {
	done := atomic.Bool{}
	go func() { done.Store(true) }()
	(&Waiter{}).Wait(done.Load)
	if !done.Load() {
		t.Fatal("Wait returned before condition")
	}
}

func TestWaitDrainsAllStealsBeforeParking(t *testing.T) {
	// With work available and condition false-then-true, every probe
	// between checks should steal (work-first policy).
	s := &countingStealer{}
	s.available.Store(3)
	w := &Waiter{Steal: s, SpinBudget: 4}
	probes := 0
	w.Wait(func() bool {
		probes++
		return s.available.Load() == 0 // condition satisfied once work drained
	})
	if got := s.stolen.Load(); got != 3 {
		t.Fatalf("stole %d, want 3", got)
	}
}

func TestSpinBudgetDefault(t *testing.T) {
	// A zero budget must fall back to the default and still terminate.
	w := &Waiter{SpinBudget: 0}
	n := 0
	w.Wait(func() bool { n++; return n > DefaultSpinBudget*2 })
	if n <= DefaultSpinBudget*2 {
		t.Fatal("wait exited early")
	}
}

func TestPoisonUnwindsBlockedWait(t *testing.T) {
	poisoned := errors.New("runtime aborted")
	armed := atomic.Bool{}
	w := &Waiter{
		SpinBudget: 4,
		Poison: func() error {
			if armed.Load() {
				return poisoned
			}
			return nil
		},
	}
	defer func() {
		p := recover()
		ap, ok := p.(AbortPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want AbortPanic", p, p)
		}
		if ap.Err != poisoned {
			t.Fatalf("AbortPanic carries %v, want the poison error", ap.Err)
		}
	}()
	probes := 0
	w.Wait(func() bool {
		probes++
		if probes > 2 {
			armed.Store(true)
		}
		return false // never satisfied; only the poison can end this wait
	})
	t.Fatal("Wait returned instead of unwinding")
}

func TestPoisonNotConsultedOnFastPath(t *testing.T) {
	// A condition satisfied on the first probe must never pay for (or be
	// failed by) the poison hook.
	w := &Waiter{Poison: func() error { t.Fatal("poison consulted on fast path"); return nil }}
	w.Wait(func() bool { return true })
}
