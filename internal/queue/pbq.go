// Package queue provides the lock-free single-producer/single-consumer
// structures at the heart of Pure's intra-node messaging (paper §4.1): the
// PBQ (PureBufferQueue), a circular queue of cacheline-aligned payload slots
// for short messages (two-copy, buffered protocol), and the Rendezvous cell,
// the posted-receive handoff for large messages (one-copy protocol).  Both
// publish in the slot: a state word beside the data says whose turn it is
// (PBQ: 0 = empty, len+1 = full; Rendezvous: 0 = free, 1 = posted, n+2 =
// filled), one side stores it after writing the data and the other loads it
// before reading, and the flag travels in the same cacheline as what it
// guards.  The PBQ's head and tail positions are plain fields private to
// their endpoint: the state word is each side's only atomic write per
// message, and observers count the full slots rather than read a position.
// Go's memory model makes each atomic store/load pair a happens-before edge,
// which is strictly stronger than the C++ acquire-release the paper relies
// on, so the same single-owner slot discipline is sound here.  (A sync/atomic
// store is sequentially consistent, an XCHG on amd64 that drains the store
// buffer, so the one store per message is the protocol's whole price.)
package queue

import (
	"fmt"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/schedpoint"
)

// PBQ is the PureBufferQueue: the lock-free SPSC circular queue Pure uses
// for short intra-node messages (paper §4.1.1).  A single contiguous buffer
// stores all message slots; a slot is [state word (8 B) | payload], its
// stride is rounded up to a cacheline multiple and the buffer starts on a
// cacheline, so the writing sender and reading receiver never false-share
// and a message of up to 56 bytes travels — flag, length and payload — in
// one line.
//
// The protocol is the classic two-copy buffered ("eager") scheme with the
// publication in the slot itself: the state word is 0 while the slot is
// empty and len+1 while it holds a message.  The sender finds the slot at
// its own position empty, copies its message in and publishes it with one
// atomic store of len+1; the receiver finds the slot at its own position
// full, copies the message out and releases it with one atomic store of 0.
// That store is each side's only atomic write per message.  The positions
// are private: the producer alone reads and writes tail, the consumer alone
// head, each on its own cacheline, and neither side ever looks at the
// other's — the state word carries every handoff.  Once TryEnqueue returns,
// the sender may immediately reuse its buffer.
//
// Exactly one goroutine may produce and one may consume (a role may move to
// another goroutine only through a happens-before edge, as a rank's
// endpoints do).  Len and Stalls are safe from any goroutine.
type PBQ struct {
	slotWords  int    // 8-byte words per slot, state word included
	maxPayload int    // usable payload bytes per slot
	mask       uint64 // slot-count mask (power of two)
	// words and buf are two views of one allocation: slot i's state word is
	// words[i*slotWords], its payload starts at buf[(i*slotWords+1)*8].
	words []atomic.Uint64
	buf   []byte

	_      layout.Pad
	head   uint64 // consumer's position; private to the consumer
	_      layout.Pad
	tail   uint64       // producer's position; private to the producer
	stalls atomic.Int64 // failed (queue-full) enqueue probes; producer-written
	_      layout.Pad
}

// stateBytes is the size of the per-slot state word in front of the payload.
const stateBytes = 8

// NewPBQ builds a PureBufferQueue with at least minSlots slots (rounded up to
// a power of two), each able to carry maxPayload bytes.  The paper's default
// is a handful of slots of up to 8 KiB; the slot count was "not a material
// performance driver" (we ablate this in the benchmarks).
func NewPBQ(minSlots, maxPayload int) *PBQ {
	return newPBQ("NewPBQ", minSlots, maxPayload, layout.CachelineBytes)
}

// NewPBQPacked builds a PureBufferQueue whose slots are packed back-to-back
// with no cacheline padding (the stride is only rounded up to the state
// word's 8-byte alignment).  The paper identifies avoiding false sharing as
// one of the three key drivers of messaging performance; this constructor
// exists so the claim can be measured (BenchmarkAblationFalseSharing) — do
// not use it for real channels.
func NewPBQPacked(minSlots, maxPayload int) *PBQ {
	return newPBQ("NewPBQPacked", minSlots, maxPayload, stateBytes)
}

func newPBQ(name string, minSlots, maxPayload, strideAlign int) *PBQ {
	if minSlots <= 0 || maxPayload <= 0 {
		panic(fmt.Sprintf("queue: %s(%d, %d): both arguments must be positive", name, minSlots, maxPayload))
	}
	n := 1
	for n < minSlots {
		n <<= 1
	}
	stride := (stateBytes + maxPayload + strideAlign - 1) / strideAlign * strideAlign
	slotWords := stride / stateBytes
	words, buf := layout.AlignedWords(n * slotWords)
	return &PBQ{
		slotWords:  slotWords,
		maxPayload: maxPayload,
		mask:       uint64(n - 1),
		words:      words,
		buf:        buf,
	}
}

// Cap returns the number of message slots.
func (q *PBQ) Cap() int { return int(q.mask) + 1 }

// MaxPayload returns the largest message the queue accepts.
func (q *PBQ) MaxPayload() int { return q.maxPayload }

// Len returns the number of buffered messages: the slots whose state word
// is non-zero, one atomic load per slot.  It reads no position, so any
// goroutine may call it.  A scan taken while both endpoints advance sees
// each slot at its own instant, but every slot it counts held a distinct
// message that was published and not yet released: the result is in
// [0, Cap], never above the enqueues begun minus the dequeues finished
// before the call, and 0 once the consumer has drained (internal/check's
// PBQ observer model checks all three).  Len costs Cap loads; it is for
// observers such as the depth gauge, not for the endpoints' own full/empty
// decisions.
func (q *PBQ) Len() int {
	n := 0
	for i := 0; i < len(q.words); i += q.slotWords {
		schedpoint.Point("pbq:len:load-word")
		if q.words[i].Load() != 0 {
			n++
		}
	}
	return n
}

// Stalls returns how many TryEnqueue calls found the queue full — the
// backpressure signal the observability layer exports as a metric.  Note a
// single logical send that spins on a full queue counts one stall per retry.
func (q *PBQ) Stalls() int64 { return q.stalls.Load() }

// TryEnqueue copies msg into the queue and reports whether a slot was free.
// It panics if msg exceeds MaxPayload; the runtime routes such messages to
// the rendezvous path instead.
func (q *PBQ) TryEnqueue(msg []byte) bool {
	if len(msg) > q.maxPayload {
		panic(fmt.Sprintf("queue: message of %d bytes exceeds PBQ payload limit %d", len(msg), q.maxPayload))
	}
	w := int(q.tail&q.mask) * q.slotWords
	word := &q.words[w]
	schedpoint.Point("pbq:enq:load-word")
	if word.Load() != 0 {
		q.stalls.Store(q.stalls.Load() + 1) // single writer: no read-modify-write needed
		return false                        // full: the consumer has not released this slot
	}
	off := (w + 1) * stateBytes
	schedpoint.Point("pbq:enq:write-slot")
	copy(q.buf[off:off+len(msg)], msg)
	q.tail++
	schedpoint.Point("pbq:enq:publish")
	word.Store(uint64(len(msg)) + 1) // publish: the payload written above happens-before the consumer's load
	return true
}

// TryDequeue copies the oldest message into dst and returns its length.
// ok is false when the queue is empty.  dst must be at least as large as the
// buffered message (message semantics, like MPI_Recv: a too-small buffer is
// a program error and panics rather than truncating silently; the message
// stays queued).
func (q *PBQ) TryDequeue(dst []byte) (n int, ok bool) {
	w := int(q.head&q.mask) * q.slotWords
	word := &q.words[w]
	schedpoint.Point("pbq:deq:load-word")
	state := word.Load()
	if state == 0 {
		return 0, false // empty
	}
	n = int(state - 1)
	if n > len(dst) {
		panic(fmt.Sprintf("queue: receive buffer of %d bytes too small for %d-byte message", len(dst), n))
	}
	off := (w + 1) * stateBytes
	schedpoint.Point("pbq:deq:read-slot")
	copy(dst[:n], q.buf[off:off+n])
	q.head++
	schedpoint.Point("pbq:deq:release")
	word.Store(0) // release the slot to the producer
	return n, true
}

// PeekLen returns the length of the oldest buffered message without
// consuming it.  ok is false when the queue is empty.  It is the consumer's
// probe: it reads the consumer's private head, so only the consuming
// goroutine may call it (the runtime's caller is Channel.RecvReady, on the
// receiving rank), and then it is one atomic load of the head slot's state
// word, used both to size probe-style operations and as the "is a message
// ready" probe.  internal/check's PBQ observer model also calls it from a
// third thread; that is sound only because the checker runs one thread at a
// time, each handoff a happens-before edge.
func (q *PBQ) PeekLen() (n int, ok bool) {
	schedpoint.Point("pbq:peek:load-word")
	state := q.words[int(q.head&q.mask)*q.slotWords].Load()
	if state == 0 {
		return 0, false
	}
	return int(state - 1), true
}
