package collective

import (
	"fmt"
	"sync/atomic"

	"repro/internal/schedpoint"
)

// pad separates atomics owned by different threads so sequence numbers never
// false-share (64-byte cachelines on the paper's Haswell nodes).
type pad [64]byte

// dropbox is one thread's Sequenced Per-Thread Dropbox (paper Fig. 2): a
// small payload area plus an atomic sequence number.  The owning (non-leader)
// thread writes the payload and then stores the sequence; the leader loads
// the sequence and, when it matches the current round, consumes the payload.
// ack carries the reverse direction: the thread stores the round it has fully
// completed, which tells the next round's shared-buffer writer that reuse is
// safe.
type dropbox struct {
	seq atomic.Uint64
	_   pad
	ack atomic.Uint64
	_   pad
	buf []byte // small-data payload area, cap = maxPayload
}

// SPTD is the Sequenced Per-Thread Dropbox collective structure for the
// nthreads ranks co-resident on one node (within one communicator).  One
// instance is shared by those threads and reused for every collective round;
// rounds are counted per-thread and advance in lockstep because collectives
// must be invoked in the same order by every rank (the usual MPI rule).
//
// Thread 0 is the statically elected leader (the paper found static election
// beats a CAS-based "first thread in" race; see the ablation bench).
type SPTD struct {
	nthreads   int
	maxPayload int
	boxes      []dropbox
	// leader zone: result payload and its publication sequence.  The
	// sequence is stored every round and polled by every non-leader, so it
	// gets a line of its own: the read-only fields on either side are loaded
	// on every call and would otherwise miss once per round.
	_         pad
	resultSeq atomic.Uint64
	_         pad
	result    []byte
	// per-thread round counters, padded.
	rounds []paddedCounter
	// per-thread wait conditions, padded.
	conds []atLeast
}

// atLeast is one thread's reusable wait condition "*a >= v".  Every wait in
// this file has that shape, and a closure built at the wait site would be
// heap-allocated per call (WaitFunc is an unknown function, so its argument
// escapes); cond is bound once, in NewSPTD, and a wait only sets a and v.
type atLeast struct {
	a    *atomic.Uint64
	v    uint64
	cond func() bool
	_    [40]byte
}

// paddedCounter is a per-thread round counter.  Only the owning thread
// advances it, but the observability layer (and watchdog diagnostics) may
// read any thread's counter from another goroutine, so the value is atomic:
// the owner's uncontended Add costs the same as a plain increment plus a
// lock-prefix, and observers get a well-defined snapshot instead of a data
// race (a stale-read bug the deterministic checker's audit surfaced).
type paddedCounter struct {
	v atomic.Uint64
	_ [56]byte
}

// NewSPTD builds the structure for nthreads threads exchanging payloads of up
// to maxPayload bytes (the paper uses SPTD for arrays up to 2 KiB; larger
// reductions switch to the Partitioned Reducer).
func NewSPTD(nthreads, maxPayload int) *SPTD {
	if nthreads <= 0 {
		panic(fmt.Sprintf("collective: NewSPTD nthreads must be positive, got %d", nthreads))
	}
	s := &SPTD{
		nthreads:   nthreads,
		maxPayload: maxPayload,
		boxes:      make([]dropbox, nthreads),
		result:     make([]byte, maxPayload),
		rounds:     make([]paddedCounter, nthreads),
		conds:      make([]atLeast, nthreads),
	}
	for i := range s.boxes {
		s.boxes[i].buf = make([]byte, maxPayload)
		c := &s.conds[i]
		c.cond = func() bool { return c.a.Load() >= c.v }
	}
	return s
}

// NThreads returns the number of participating threads.
func (s *SPTD) NThreads() int { return s.nthreads }

// Round returns how many collective rounds thread tid has completed on this
// structure.  Each thread owns its counter, so the value is exact when read
// by tid itself and an atomic snapshot otherwise; the observability layer
// records it with SPTD-path collective trace events.
func (s *SPTD) Round(tid int) uint64 { return s.rounds[tid].v.Load() }

// nextRound advances and returns tid's round number (1-based).
func (s *SPTD) nextRound(tid int) uint64 {
	return s.rounds[tid].v.Add(1)
}

// finish records that tid has completed round r.
func (s *SPTD) finish(tid int, r uint64) { s.boxes[tid].ack.Store(r) }

// waitAtLeast blocks thread tid until a has reached v.
func (s *SPTD) waitAtLeast(tid int, a *atomic.Uint64, v uint64, wait WaitFunc) {
	c := &s.conds[tid]
	c.a, c.v = a, v
	wait(c.cond)
}

// waitBoxFree blocks a non-leader about to refill its dropbox for round r
// until the leader is done reading round r-1's payload out of it, which is
// what publishing round r-1's result says.  A thread that waited for that
// result (Allreduce, Barrier, Broadcast) finds it on the first load; only a
// non-root thread leaving Reduce runs ahead of the leader's fold.
func (s *SPTD) waitBoxFree(tid int, r uint64, wait WaitFunc) {
	if s.resultSeq.Load() < r-1 {
		s.waitAtLeast(tid, &s.resultSeq, r-1, wait)
	}
}

// waitAllFinished blocks until every thread has completed round r.  Writers
// of the shared result buffer call this with the previous round before
// overwriting, so a slow thread still copying out can never observe a torn
// result.
func (s *SPTD) waitAllFinished(tid int, r uint64, wait WaitFunc) {
	for t := 0; t < s.nthreads; t++ {
		s.waitAtLeast(tid, &s.boxes[t].ack, r, wait)
	}
}

// Barrier synchronizes the node-local threads: pairwise arrive at the leader,
// pairwise release from the leader.  No payload moves.
func (s *SPTD) Barrier(tid int, wait WaitFunc) {
	s.BarrierBridged(tid, nil, wait)
}

// BarrierBridged is Barrier with a cross-node hook: when every local thread
// has arrived, the leader invokes bridge (e.g. the inter-node barrier over
// MPI in the paper, netsim here) before releasing the local threads.
func (s *SPTD) BarrierBridged(tid int, bridge func(), wait WaitFunc) {
	r := s.nextRound(tid)
	if tid == 0 {
		for t := 1; t < s.nthreads; t++ {
			s.waitAtLeast(tid, &s.boxes[t].seq, r, wait)
		}
		if bridge != nil {
			bridge()
		}
		schedpoint.Point("sptd:barrier:publish-result")
		s.resultSeq.Store(r)
	} else {
		schedpoint.Point("sptd:barrier:arrive")
		s.boxes[tid].seq.Store(r)
		s.waitAtLeast(tid, &s.resultSeq, r, wait)
	}
	schedpoint.Point("sptd:barrier:finish")
	s.finish(tid, r)
}

// Reduce folds every thread's in payload with op/dt; the result lands in
// root's out buffer.  bridge, if non-nil, runs on the leader after the local
// reduction with the locally reduced bytes; it may rewrite them in place with
// the cross-node result (MPI_Reduce at node scope in the paper).
func (s *SPTD) Reduce(tid, root int, in, out []byte, op Op, dt DType, bridge func([]byte), wait WaitFunc) {
	if len(in) > s.maxPayload {
		panic(fmt.Sprintf("collective: SPTD payload %d exceeds max %d", len(in), s.maxPayload))
	}
	r := s.nextRound(tid)
	if tid == 0 {
		// Gather and fold every non-leader's dropbox payload.
		s.waitAllFinished(tid, r-1, wait) // result buffer reuse safety
		schedpoint.Point("sptd:reduce:leader-fold")
		acc := s.result[:len(in)]
		copy(acc, in)
		for t := 1; t < s.nthreads; t++ {
			b := &s.boxes[t]
			s.waitAtLeast(tid, &b.seq, r, wait)
			schedpoint.Point("sptd:reduce:consume-box")
			Accumulate(acc, b.buf[:len(in)], op, dt)
		}
		if bridge != nil {
			bridge(acc)
		}
		schedpoint.Point("sptd:reduce:publish-result")
		s.resultSeq.Store(r)
		if root == 0 {
			copy(out, acc)
		}
	} else {
		b := &s.boxes[tid]
		s.waitBoxFree(tid, r, wait)
		schedpoint.Point("sptd:reduce:write-box")
		copy(b.buf[:len(in)], in)
		schedpoint.Point("sptd:reduce:publish-box")
		b.seq.Store(r)
		if tid == root {
			s.waitAtLeast(tid, &s.resultSeq, r, wait)
			schedpoint.Point("sptd:reduce:copy-out")
			copy(out, s.result[:len(in)])
		}
	}
	schedpoint.Point("sptd:reduce:finish")
	s.finish(tid, r)
	// The leader must not return before the root has copied the result out;
	// otherwise the leader could start the next round and overwrite it.  The
	// waitAllFinished(r-1) gate above provides exactly that protection, so no
	// extra synchronization is needed here.
}

// Allreduce folds every thread's in payload and delivers the result to every
// thread's out buffer.  This is the paper's small-data all-reduce (§4.2.1):
// flat-combining through the leader with pairwise sequence synchronization.
func (s *SPTD) Allreduce(tid int, in, out []byte, op Op, dt DType, bridge func([]byte), wait WaitFunc) {
	if len(in) > s.maxPayload {
		panic(fmt.Sprintf("collective: SPTD payload %d exceeds max %d", len(in), s.maxPayload))
	}
	r := s.nextRound(tid)
	if tid == 0 {
		s.waitAllFinished(tid, r-1, wait)
		schedpoint.Point("sptd:allreduce:leader-fold")
		acc := s.result[:len(in)]
		copy(acc, in)
		for t := 1; t < s.nthreads; t++ {
			b := &s.boxes[t]
			s.waitAtLeast(tid, &b.seq, r, wait)
			schedpoint.Point("sptd:allreduce:consume-box")
			Accumulate(acc, b.buf[:len(in)], op, dt)
		}
		if bridge != nil {
			bridge(acc)
		}
		schedpoint.Point("sptd:allreduce:publish-result")
		s.resultSeq.Store(r)
		copy(out, acc)
	} else {
		b := &s.boxes[tid]
		s.waitBoxFree(tid, r, wait)
		schedpoint.Point("sptd:allreduce:write-box")
		copy(b.buf[:len(in)], in)
		schedpoint.Point("sptd:allreduce:publish-box")
		b.seq.Store(r)
		s.waitAtLeast(tid, &s.resultSeq, r, wait)
		schedpoint.Point("sptd:allreduce:copy-out")
		copy(out, s.result[:len(in)])
	}
	schedpoint.Point("sptd:allreduce:finish")
	s.finish(tid, r)
}

// Broadcast delivers root's buf to every thread's buf.  The root writes the
// shared result area (after confirming the previous round fully drained) and
// publishes it with the result sequence; everyone else copies out.
func (s *SPTD) Broadcast(tid, root int, buf []byte, bridge func([]byte), wait WaitFunc) {
	if len(buf) > s.maxPayload {
		panic(fmt.Sprintf("collective: SPTD payload %d exceeds max %d", len(buf), s.maxPayload))
	}
	r := s.nextRound(tid)
	if tid == root {
		s.waitAllFinished(tid, r-1, wait)
		if bridge != nil {
			bridge(buf)
		}
		schedpoint.Point("sptd:bcast:write-result")
		copy(s.result[:len(buf)], buf)
		schedpoint.Point("sptd:bcast:publish-result")
		s.resultSeq.Store(r)
	} else {
		s.waitAtLeast(tid, &s.resultSeq, r, wait)
		schedpoint.Point("sptd:bcast:copy-out")
		copy(buf, s.result[:len(buf)])
	}
	schedpoint.Point("sptd:bcast:finish")
	s.finish(tid, r)
}
