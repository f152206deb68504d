package collective

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/layout"
	"repro/internal/schedpoint"
)

// dropbox is one cacheline-aligned [sequence word | payload] region of the
// SPTD's shared memory (paper Fig. 2).  Its writer copies a payload in and
// then stores the round into seq; its reader loads seq and, once it shows
// the round, reads the payload.  A payload of up to 56 bytes shares the
// sequence word's line, so a handoff moves one line; a larger one runs on
// into the region's following lines.  Each non-leader owns a box for its
// contribution, and the result is a dropbox too, written by the leader (or
// by a Broadcast's root) and read by everyone else.
type dropbox struct {
	seq *atomic.Uint64
	buf []byte // payload, len = maxPayload
}

// thread is one thread's private line in the SPTD's shared memory; only its
// owner writes it.  round and ack are atomic because other goroutines read
// them: any observer the round (see Round), a Broadcast's root the ack.  at
// and want are the owner's pending wait, "words[at] >= want", read only by
// the owner's condition: every wait in this file has that shape, and a
// closure built at the wait site would be heap-allocated per call (WaitFunc
// is an unknown function, so its argument escapes), so the condition is
// bound once, in NewSPTD, and a wait only sets at and want.
type thread struct {
	round atomic.Uint64 // rounds entered
	ack   atomic.Uint64 // last round finished
	at    int
	want  uint64
}

// A thread's state must fit its line.
var _ [layout.CachelineBytes - unsafe.Sizeof(thread{})]byte

// SPTD is the Sequenced Per-Thread Dropbox collective structure for the
// nthreads ranks co-resident on one node (within one communicator).  One
// instance is shared by those threads and reused for every collective round;
// rounds are counted per-thread and advance in lockstep because collectives
// must be invoked in the same order by every rank (the usual MPI rule).
//
// Thread 0 is the statically elected leader (the paper found static election
// beats a CAS-based "first thread in" race; see the ablation bench).
//
// Everything the threads write lives in one cacheline-aligned allocation:
// nthreads dropboxes (the result, then one box per non-leader) followed by
// one line per thread.  The struct itself is read-only after NewSPTD, so
// where the allocator puts it cannot make two writers share a line.
type SPTD struct {
	nthreads   int
	maxPayload int
	boxWords   int             // words per dropbox region, a whole number of lines
	words      []atomic.Uint64 // the shared memory
	boxes      []dropbox       // boxes[0] is the result, boxes[t] thread t's box
	threads    []*thread       // thread t's line in words
	conds      []func() bool   // thread t's wait condition
}

// NewSPTD builds the structure for nthreads threads exchanging payloads of up
// to maxPayload bytes (the paper uses SPTD for arrays up to 2 KiB; larger
// reductions switch to the Partitioned Reducer).
func NewSPTD(nthreads, maxPayload int) *SPTD {
	if nthreads <= 0 || maxPayload < 0 {
		panic(fmt.Sprintf("collective: NewSPTD(%d, %d): nthreads must be positive and maxPayload not negative", nthreads, maxPayload))
	}
	boxWords := (8 + maxPayload + layout.CachelineBytes - 1) / layout.CachelineBytes * layout.LineWords
	words, mem := layout.AlignedWords(nthreads * (boxWords + layout.LineWords))
	s := &SPTD{
		nthreads:   nthreads,
		maxPayload: maxPayload,
		boxWords:   boxWords,
		words:      words,
		boxes:      make([]dropbox, nthreads),
		threads:    make([]*thread, nthreads),
		conds:      make([]func() bool, nthreads),
	}
	for t := 0; t < nthreads; t++ {
		off := (t*boxWords + 1) * 8
		s.boxes[t] = dropbox{seq: &words[t*boxWords], buf: mem[off : off+maxPayload : off+maxPayload]}
		th := (*thread)(unsafe.Pointer(&words[s.lineWord(t)]))
		s.threads[t] = th
		s.conds[t] = func() bool { return words[th.at].Load() >= th.want }
	}
	return s
}

// lineWord is the index in words of thread t's line.
func (s *SPTD) lineWord(t int) int { return s.nthreads*s.boxWords + t*layout.LineWords }

// ackWord is the offset in words of the ack within a thread's line.
const ackWord = int(unsafe.Offsetof(thread{}.ack) / 8)

// result is the result's dropbox; its sequence word is words[result].
const result = 0

// Round returns how many collective rounds thread tid has entered on this
// structure.  Each thread owns its counter, so the value is exact when read
// by tid itself and an atomic snapshot otherwise; the observability layer
// records it with SPTD-path collective trace events.
func (s *SPTD) Round(tid int) uint64 { return s.threads[tid].round.Load() }

// nextRound advances and returns tid's round number (1-based).
func (s *SPTD) nextRound(tid int) uint64 { return s.threads[tid].round.Add(1) }

// finish records that tid has completed round r.
func (s *SPTD) finish(tid int, r uint64) { s.threads[tid].ack.Store(r) }

// waitAtLeast blocks thread tid until words[at] has reached v.
func (s *SPTD) waitAtLeast(tid, at int, v uint64, wait WaitFunc) {
	th := s.threads[tid]
	th.at, th.want = at, v
	wait(s.conds[tid])
}

// waitBoxes blocks the leader until every non-leader has filled its box for
// round r.  A thread fills its box for round r only after it has finished
// round r-1, so this is also the proof that nobody still reads round r-1's
// result: once it returns the leader may overwrite the result.
func (s *SPTD) waitBoxes(r uint64, wait WaitFunc) {
	for t := 1; t < s.nthreads; t++ {
		s.waitAtLeast(0, t*s.boxWords, r, wait)
	}
}

// waitBoxFree blocks a non-leader about to refill its dropbox for round r
// until the leader is done reading round r-1's payload out of it, which is
// what publishing round r-1's result says.  A thread that waited for that
// result (Allreduce, Barrier, Broadcast) finds it on the first load; only a
// non-root thread leaving Reduce runs ahead of the leader's fold.
func (s *SPTD) waitBoxFree(tid int, r uint64, wait WaitFunc) {
	if s.boxes[result].seq.Load() < r-1 {
		s.waitAtLeast(tid, result, r-1, wait)
	}
}

// waitAllFinished blocks until every thread has completed round r.  A
// Broadcast's root calls it with the previous round before it overwrites the
// result: the other threads write no box in a Broadcast, so their acks are
// the only proof that none of them is still copying the previous result out.
func (s *SPTD) waitAllFinished(tid int, r uint64, wait WaitFunc) {
	for t := 0; t < s.nthreads; t++ {
		s.waitAtLeast(tid, s.lineWord(t)+ackWord, r, wait)
	}
}

// Barrier synchronizes the node-local threads: pairwise arrive at the leader,
// pairwise release from the leader.  No payload moves.
func (s *SPTD) Barrier(tid int, wait WaitFunc) {
	s.BarrierBridged(tid, nil, wait)
}

// BarrierBridged is Barrier with a cross-node hook: when every local thread
// has arrived, the leader invokes bridge (e.g. the inter-node barrier over
// MPI in the paper, the leaders' link legs here) before releasing the local
// threads.
func (s *SPTD) BarrierBridged(tid int, bridge func(), wait WaitFunc) {
	r := s.nextRound(tid)
	if tid == 0 {
		s.waitBoxes(r, wait)
		if bridge != nil {
			bridge()
		}
		schedpoint.Point("sptd:barrier:publish-result")
		s.boxes[result].seq.Store(r)
	} else {
		schedpoint.Point("sptd:barrier:arrive")
		s.boxes[tid].seq.Store(r)
		s.waitAtLeast(tid, result, r, wait)
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
		acc := s.fold(r, in, op, dt, wait)
		if bridge != nil {
			bridge(acc)
		}
		schedpoint.Point("sptd:reduce:publish-result")
		s.boxes[result].seq.Store(r)
		if root == 0 {
			copy(out, acc)
		}
	} else {
		s.fill(tid, r, in, wait)
		if tid == root {
			s.waitAtLeast(tid, result, r, wait)
			schedpoint.Point("sptd:reduce:copy-out")
			copy(out, s.boxes[result].buf[:len(in)])
		}
	}
	schedpoint.Point("sptd:reduce:finish")
	s.finish(tid, r)
	// The leader may return before the root has copied the result out: it
	// overwrites the result again only after it has seen the root's box for
	// a later round (waitBoxes), and a Broadcast's root only after the
	// root's ack.
}

// Allreduce folds every thread's in payload and delivers the result to every
// thread's out buffer.  This is the paper's small-data all-reduce (§4.2.1):
// flat-combining through the leader with pairwise sequence synchronization,
// one line each way for a payload of up to 56 bytes.
func (s *SPTD) Allreduce(tid int, in, out []byte, op Op, dt DType, bridge func([]byte), wait WaitFunc) {
	if len(in) > s.maxPayload {
		panic(fmt.Sprintf("collective: SPTD payload %d exceeds max %d", len(in), s.maxPayload))
	}
	r := s.nextRound(tid)
	if tid == 0 {
		acc := s.fold(r, in, op, dt, wait)
		if bridge != nil {
			bridge(acc)
		}
		schedpoint.Point("sptd:allreduce:publish-result")
		s.boxes[result].seq.Store(r)
		copy(out, acc)
	} else {
		s.fill(tid, r, in, wait)
		s.waitAtLeast(tid, result, r, wait)
		schedpoint.Point("sptd:allreduce:copy-out")
		copy(out, s.boxes[result].buf[:len(in)])
	}
	schedpoint.Point("sptd:allreduce:finish")
	s.finish(tid, r)
}

// fold is the leader's half of a round-r reduction: once every box holds
// round r it folds in and the boxes into the result payload, which it
// returns unpublished.
func (s *SPTD) fold(r uint64, in []byte, op Op, dt DType, wait WaitFunc) []byte {
	s.waitBoxes(r, wait)
	schedpoint.Point("sptd:fold:write-result")
	acc := s.boxes[result].buf[:len(in)]
	copy(acc, in)
	for t := 1; t < s.nthreads; t++ {
		schedpoint.Point("sptd:fold:consume-box")
		Accumulate(acc, s.boxes[t].buf[:len(in)], op, dt)
	}
	return acc
}

// fill is a non-leader's half of a round-r reduction: it writes in into its
// box once the leader has read the previous contribution out, and publishes
// it.
func (s *SPTD) fill(tid int, r uint64, in []byte, wait WaitFunc) {
	b := &s.boxes[tid]
	s.waitBoxFree(tid, r, wait)
	schedpoint.Point("sptd:fill:write-box")
	copy(b.buf[:len(in)], in)
	schedpoint.Point("sptd:fill:publish-box")
	b.seq.Store(r)
}

// Broadcast delivers root's buf to every thread's buf.  The root writes the
// result (after every thread's ack says the previous round fully drained)
// and publishes it with the result sequence; everyone else copies out.
func (s *SPTD) Broadcast(tid, root int, buf []byte, bridge func([]byte), wait WaitFunc) {
	if len(buf) > s.maxPayload {
		panic(fmt.Sprintf("collective: SPTD payload %d exceeds max %d", len(buf), s.maxPayload))
	}
	r := s.nextRound(tid)
	res := &s.boxes[result]
	if tid == root {
		s.waitAllFinished(tid, r-1, wait)
		if bridge != nil {
			bridge(buf)
		}
		schedpoint.Point("sptd:bcast:write-result")
		copy(res.buf[:len(buf)], buf)
		schedpoint.Point("sptd:bcast:publish-result")
		res.seq.Store(r)
	} else {
		s.waitAtLeast(tid, result, r, wait)
		schedpoint.Point("sptd:bcast:copy-out")
		copy(buf, res.buf[:len(buf)])
	}
	schedpoint.Point("sptd:bcast:finish")
	s.finish(tid, r)
}
