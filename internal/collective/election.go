package collective

import (
	"sync/atomic"

	"repro/internal/layout"
)

// The paper §4.2: "We use a simple static leader election process, which
// outperformed a compare-and-swap based 'first thread in' process."  This
// file implements that rejected CAS design so the claim can be measured
// (BenchmarkAblationLeaderElection).

// CASBarrier is a barrier whose per-round leader is the first thread to win
// a compare-and-swap; the leader then waits for the stragglers and releases
// everyone.  Contrast with SPTD's statically elected thread 0.
type CASBarrier struct {
	n int
	// leader is the round's winner + 1 (0 = unclaimed), CAS-contended by
	// every arriving thread — the cost the paper measured and avoided.
	leader     atomic.Int64
	arrived    atomic.Int64
	_          layout.Pad
	release    atomic.Uint64
	_          layout.Pad
	members    []member
	allArrived func() bool
}

// NewCASBarrier builds a first-thread-in barrier for n threads.
func NewCASBarrier(n int) *CASBarrier {
	if n <= 0 {
		panic("collective: NewCASBarrier needs positive n")
	}
	b := &CASBarrier{n: n, members: newMembers(n)}
	b.allArrived = func() bool { return b.arrived.Load() == int64(b.n) }
	return b
}

// Wait blocks tid until all n threads have arrived.
func (b *CASBarrier) Wait(tid int, wait WaitFunc) {
	m := &b.members[tid]
	r := m.round.Add(1)
	iAmLeader := b.leader.CompareAndSwap(0, int64(tid)+1)
	arrivedNow := b.arrived.Add(1)
	if iAmLeader {
		// Leader: wait for everyone, reset, release.
		wait(b.allArrived)
		b.arrived.Store(0)
		b.leader.Store(0)
		b.release.Store(r)
		return
	}
	_ = arrivedNow
	m.waitAtLeast(&b.release, r, wait)
}
