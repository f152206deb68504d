package queue

import (
	"fmt"
	"sync/atomic"
	"unsafe"

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
// Neither side ever loads the other's position: head and tail are written by
// their owner for observers (Len) only.  Once Enqueue returns, the sender may
// immediately reuse its buffer.
//
// Exactly one goroutine may produce and one may consume.
type PBQ struct {
	slotWords  int    // 8-byte words per slot, state word included
	maxPayload int    // usable payload bytes per slot
	mask       uint64 // slot-count mask (power of two)
	// words and buf are two views of one allocation: slot i's state word is
	// words[i*slotWords], its payload starts at buf[(i*slotWords+1)*8].
	words []atomic.Uint64
	buf   []byte

	_      pad
	head   atomic.Uint64 // consumer's position; nobody else writes it
	_      pad
	tail   atomic.Uint64 // producer's position; nobody else writes it
	stalls atomic.Int64  // failed (queue-full) enqueue probes; producer-written
	_      pad
}

// stateBytes is the size of the per-slot state word in front of the payload.
const stateBytes = 8

// NewPBQ builds a PureBufferQueue with at least minSlots slots (rounded up to
// a power of two), each able to carry maxPayload bytes.  The paper's default
// is a handful of slots of up to 8 KiB; the slot count was "not a material
// performance driver" (we ablate this in the benchmarks).
func NewPBQ(minSlots, maxPayload int) *PBQ {
	return newPBQ("NewPBQ", minSlots, maxPayload, CachelineBytes)
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
	// A []atomic.Uint64 is 8-aligned by construction; one spare cacheline
	// lets the first slot start on a cacheline boundary wherever the
	// allocator put the array (heap objects do not move).
	const lineWords = CachelineBytes / stateBytes
	words := make([]atomic.Uint64, n*slotWords+lineWords-1)
	skip := int(-uintptr(unsafe.Pointer(&words[0])) % CachelineBytes / stateBytes)
	words = words[skip : skip+n*slotWords : skip+n*slotWords]
	return &PBQ{
		slotWords:  slotWords,
		maxPayload: maxPayload,
		mask:       uint64(n - 1),
		words:      words,
		buf:        unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n*stride),
	}
}

// Cap returns the number of message slots.
func (q *PBQ) Cap() int { return int(q.mask) + 1 }

// MaxPayload returns the largest message the queue accepts.
func (q *PBQ) MaxPayload() int { return q.maxPayload }

// Len returns the number of buffered messages.  Safe for any observer
// goroutine: each side publishes its position before the slot word that
// hands the slot over, so head <= tail <= head+Cap holds at every instant;
// the head is loaded before the tail and the difference is clamped to Cap,
// so a snapshot taken while both endpoints advance can never report a
// negative or over-capacity depth.  (Loading the tail first could see a head
// that had already passed it, underflowing the unsigned difference — a torn
// read the deterministic checker exhibits; see internal/check's PBQ observer
// model test.)  Between a position store and its slot word the count leads
// the slot by one, so Len is for observers, not for the endpoints' own
// full/empty decisions.
func (q *PBQ) Len() int {
	schedpoint.Point("pbq:len:load-head")
	h := q.head.Load()
	schedpoint.Point("pbq:len:load-tail")
	t := q.tail.Load()
	// t >= h because h is the older snapshot; but both endpoints may have
	// advanced between the two loads, so the difference is capped.
	n := t - h
	if n > q.mask+1 {
		n = q.mask + 1
	}
	return int(n)
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
	t := q.tail.Load()
	w := int(t&q.mask) * q.slotWords
	word := &q.words[w]
	schedpoint.Point("pbq:enq:load-word")
	if word.Load() != 0 {
		q.stalls.Store(q.stalls.Load() + 1) // single writer: no read-modify-write needed
		return false                        // full: the consumer has not released this slot
	}
	off := (w + 1) * stateBytes
	schedpoint.Point("pbq:enq:write-slot")
	copy(q.buf[off:off+len(msg)], msg)
	schedpoint.Point("pbq:enq:publish-pos")
	q.tail.Store(t + 1) // position first: see Len
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
	h := q.head.Load()
	w := int(h&q.mask) * q.slotWords
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
	schedpoint.Point("pbq:deq:release-pos")
	q.head.Store(h + 1) // position first: see Len
	schedpoint.Point("pbq:deq:release")
	word.Store(0) // release the slot to the producer
	return n, true
}

// PeekLen returns the length of the oldest buffered message without
// consuming it.  ok is false when the queue is empty.  It is one atomic
// load of the head slot's state word, so receivers use it both to size
// probe-style operations and as the "is a message ready" probe.
func (q *PBQ) PeekLen() (n int, ok bool) {
	schedpoint.Point("pbq:peek:load-word")
	state := q.words[int(q.head.Load()&q.mask)*q.slotWords].Load()
	if state == 0 {
		return 0, false
	}
	return int(state - 1), true
}

// Envelope is the receiver-posted metadata for a rendezvous (large-message)
// transfer (paper §4.1.2): where the payload should land and how many bytes
// the receiver is prepared to accept.
type Envelope struct {
	Dest []byte // receiver's destination buffer (len = capacity in bytes)
	Seq  uint64 // receiver-assigned sequence, echoed on the completion queue
}

// Completion is the sender's notification that a rendezvous transfer
// finished: how many bytes were written into the envelope's buffer.
type Completion struct {
	Bytes int
	Seq   uint64
}

// RendezvousChannel pairs the two SPSC rings of the large-message protocol.
// The receiver posts Envelopes; the sender pops an envelope, copies the
// payload directly into Envelope.Dest (the single copy), and pushes a
// Completion; the receiver pops the completion to learn the byte count.
type RendezvousChannel struct {
	Envelopes   *Ring[Envelope]
	Completions *Ring[Completion]
}

// NewRendezvousChannel builds a rendezvous channel with the given depth
// (how many receives may be posted before the receiver must drain
// completions).
func NewRendezvousChannel(depth int) *RendezvousChannel {
	return &RendezvousChannel{
		Envelopes:   NewRing[Envelope](depth),
		Completions: NewRing[Completion](depth),
	}
}
