package collective

import (
	"fmt"
	"sync/atomic"

	"repro/internal/layout"
)

// PartitionedReducer implements the paper's large-data all-reduce (§4.2.2,
// Fig. 3).  Rather than serializing the fold through the leader, every
// thread publishes a pointer to its input buffer, then all threads
// concurrently reduce disjoint, cacheline-multiple chunks of the element
// range, writing into a shared output buffer.  The leader then bridges
// across nodes (MPI_Allreduce in the paper) and publishes the final result,
// which every thread copies into its private output buffer.
//
// Example from the paper: a 4 KiB reduction on 64 B cachelines splits into 64
// chunks, so up to 64 threads fold concurrently; threads beyond the chunk
// count have no fold work.
type PartitionedReducer struct {
	nthreads int
	maxBytes int

	arrive  []prSlot
	shared  []byte // shared output buffer, leader-owned allocation
	members []member

	_        layout.Pad
	finalSeq atomic.Uint64
	_        layout.Pad
}

// prSlot is one thread's arrival/done/ack record, padded against false
// sharing.  input is a plain field: its owner writes it before storing seq,
// and the others read it only after loading that seq.
type prSlot struct {
	input []byte        // published input buffer for this round
	seq   atomic.Uint64 // arrival sequence
	_     layout.Pad
	done  atomic.Uint64 // fold-work-complete sequence
	_     layout.Pad
	ack   atomic.Uint64 // copy-out-complete sequence
	_     layout.Pad
}

// NewPartitionedReducer builds the structure for nthreads threads reducing
// payloads of up to maxBytes bytes.
func NewPartitionedReducer(nthreads, maxBytes int) *PartitionedReducer {
	if nthreads <= 0 || maxBytes <= 0 {
		panic(fmt.Sprintf("collective: NewPartitionedReducer(%d, %d): arguments must be positive", nthreads, maxBytes))
	}
	return &PartitionedReducer{
		nthreads: nthreads,
		maxBytes: maxBytes,
		arrive:   make([]prSlot, nthreads),
		shared:   make([]byte, maxBytes),
		members:  newMembers(nthreads),
	}
}

// ChunkRange returns the half-open byte range [lo, hi) of the shared output
// that thread tid folds, given a payload of n bytes.  Chunks are multiples of
// the 64-byte cacheline so concurrent writers never false-share; threads
// beyond the cacheline count receive an empty range.
func (p *PartitionedReducer) ChunkRange(tid, n int) (lo, hi int) {
	const line = 64
	lines := (n + line - 1) / line
	per := lines / p.nthreads
	extra := lines % p.nthreads
	// Deal `per` lines to everyone and one extra line to the first `extra`
	// threads, preserving contiguity.
	start := tid*per + min(tid, extra)
	count := per
	if tid < extra {
		count++
	}
	lo = start * line
	hi = lo + count*line
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Allreduce folds every thread's in buffer element-wise and writes the result
// into every thread's out buffer.  bridge, if non-nil, runs on the leader
// (thread 0) once the node-local fold completes and may rewrite the reduced
// bytes in place with the cross-node result.  All nthreads threads must call
// Allreduce with equal-length buffers.
func (p *PartitionedReducer) Allreduce(tid int, in, out []byte, op Op, dt DType, bridge func([]byte), wait WaitFunc) {
	if len(in) > p.maxBytes {
		panic(fmt.Sprintf("collective: payload %d exceeds PartitionedReducer max %d", len(in), p.maxBytes))
	}
	if len(out) < len(in) {
		panic(fmt.Sprintf("collective: output buffer %d smaller than input %d", len(out), len(in)))
	}
	m := &p.members[tid]
	r := m.round.Add(1)
	me := &p.arrive[tid]

	// Before publishing our input for round r we must know the shared buffer
	// is no longer being read from round r-1 by anyone (everyone acked).
	// Threads only write disjoint chunks, but a slow thread could still be
	// copying out round r-1's bytes from our chunk.
	for t := range p.arrive {
		m.waitAtLeast(&p.arrive[t].ack, r-1, wait)
	}

	// Arrival: publish a pointer to our input, bump our sequence (paper:
	// "instead of copying in their data, they just set a pointer to their
	// buffer before incrementing their sequence number").
	me.input = in
	me.seq.Store(r)

	// Fold phase: wait for all arrivals, then reduce our chunk across all
	// threads' inputs into the shared output.
	for t := range p.arrive {
		m.waitAtLeast(&p.arrive[t].seq, r, wait)
	}
	lo, hi := p.ChunkRange(tid, len(in))
	if lo < hi {
		copy(p.shared[lo:hi], p.arrive[0].input[lo:hi])
		for t := 1; t < p.nthreads; t++ {
			Accumulate(p.shared[lo:hi], p.arrive[t].input[lo:hi], op, dt)
		}
	}
	me.done.Store(r)

	if tid == 0 {
		// Leader: wait for all folds, bridge across nodes, publish.
		for t := range p.arrive {
			m.waitAtLeast(&p.arrive[t].done, r, wait)
		}
		if bridge != nil {
			bridge(p.shared[:len(in)])
		}
		p.finalSeq.Store(r)
	} else {
		m.waitAtLeast(&p.finalSeq, r, wait)
	}
	copy(out[:len(in)], p.shared[:len(in)])
	me.ack.Store(r)
}

// Round returns how many Allreduce rounds thread tid has entered on this
// structure (exact for tid itself, an atomic snapshot for other readers).
func (p *PartitionedReducer) Round(tid int) uint64 { return p.members[tid].round.Load() }

// member is one thread's private state in the structures of this file: its
// round counter and its reusable wait condition "*a >= v".  Every wait here
// has that shape, and a closure built at the wait site would be
// heap-allocated per call (WaitFunc is an unknown function, so its argument
// escapes); cond is bound once, in newMembers, and a wait only sets a and v.
// Only the owner writes a member; the round is atomic because observers may
// read it.
type member struct {
	round atomic.Uint64
	a     *atomic.Uint64
	v     uint64
	cond  func() bool
	_     [layout.CachelineBytes - 32]byte
}

func newMembers(n int) []member {
	ms := make([]member, n)
	for i := range ms {
		m := &ms[i]
		m.cond = func() bool { return m.a.Load() >= m.v }
	}
	return ms
}

// waitAtLeast blocks the member's thread until *a has reached v.
func (m *member) waitAtLeast(a *atomic.Uint64, v uint64, wait WaitFunc) {
	m.a, m.v = a, v
	wait(m.cond)
}

// CounterBarrier is the shared-atomic-counter barrier the paper tried first
// and abandoned ("the pairwise synchronization offered by [SPTD] vastly
// outperformed a shared atomic counter approach").  It is retained for the
// ablation benchmarks: a sense-reversing central counter.
type CounterBarrier struct {
	n       int
	count   atomic.Int64
	_       layout.Pad
	sense   atomic.Uint64
	_       layout.Pad
	members []member
}

// NewCounterBarrier builds a central-counter barrier for n threads.
func NewCounterBarrier(n int) *CounterBarrier {
	if n <= 0 {
		panic(fmt.Sprintf("collective: NewCounterBarrier(%d): n must be positive", n))
	}
	return &CounterBarrier{n: n, members: newMembers(n)}
}

// Wait blocks tid until all n threads have arrived.
func (b *CounterBarrier) Wait(tid int, wait WaitFunc) {
	m := &b.members[tid]
	r := m.round.Add(1)
	if b.count.Add(1) == int64(b.n) {
		b.count.Store(0)
		b.sense.Store(r) // release everyone
	} else {
		m.waitAtLeast(&b.sense, r, wait)
	}
}
