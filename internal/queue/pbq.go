package queue

import (
	"fmt"
	"sync/atomic"

	"repro/internal/schedpoint"
)

// PBQ is the PureBufferQueue: the lock-free SPSC circular queue Pure uses
// for short intra-node messages (paper §4.1.1).  A single contiguous buffer
// stores all message slots; each slot's stride is rounded up to a cacheline
// multiple so the writing sender and reading receiver never false-share.
//
// The protocol is the classic two-copy buffered ("eager") scheme: the sender
// copies its message into a free slot and publishes it by advancing the tail;
// the receiver copies the message out and releases the slot by advancing the
// head.  Once Enqueue returns, the sender may immediately reuse its buffer.
//
// Exactly one goroutine may produce and one may consume.
type PBQ struct {
	slotStride int    // bytes per slot, cacheline multiple
	maxPayload int    // usable payload bytes per slot
	mask       uint64 // slot-count mask (power of two)
	lens       []int32
	buf        []byte

	_      pad
	head   atomic.Uint64 // consumer-owned
	_      pad
	tail   atomic.Uint64 // producer-owned
	_      pad
	stalls atomic.Int64 // failed (queue-full) enqueue attempts, for observability
	_      pad
}

// NewPBQ builds a PureBufferQueue with at least minSlots slots (rounded up to
// a power of two), each able to carry maxPayload bytes.  The paper's default
// is a handful of slots of up to 8 KiB; the slot count was "not a material
// performance driver" (we ablate this in the benchmarks).
func NewPBQ(minSlots, maxPayload int) *PBQ {
	if minSlots <= 0 || maxPayload <= 0 {
		panic(fmt.Sprintf("queue: NewPBQ(%d, %d): both arguments must be positive", minSlots, maxPayload))
	}
	n := 1
	for n < minSlots {
		n <<= 1
	}
	stride := (maxPayload + CachelineBytes - 1) / CachelineBytes * CachelineBytes
	return &PBQ{
		slotStride: stride,
		maxPayload: maxPayload,
		mask:       uint64(n - 1),
		lens:       make([]int32, n),
		buf:        make([]byte, n*stride),
	}
}

// Cap returns the number of message slots.
func (q *PBQ) Cap() int { return len(q.lens) }

// MaxPayload returns the largest message the queue accepts.
func (q *PBQ) MaxPayload() int { return q.maxPayload }

// Len returns the number of buffered messages.  Safe for any observer
// goroutine: the head is loaded before the tail and the difference is
// clamped to [0, Cap], so a snapshot taken while both endpoints advance can
// never report a negative or over-capacity depth.  (Loading the tail first
// could see a head that had already passed it, underflowing the unsigned
// difference — a torn read the deterministic checker exhibits; see
// internal/check's PBQ observer model test.)
func (q *PBQ) Len() int {
	schedpoint.Point("pbq:len:load-head")
	h := q.head.Load()
	schedpoint.Point("pbq:len:load-tail")
	t := q.tail.Load()
	// The tail never trails the head, and h is the older snapshot, so t >= h
	// always; but both endpoints may have advanced between the two loads, so
	// the difference is capped at the slot count.
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
	schedpoint.Point("pbq:enq:load-tail")
	t := q.tail.Load()
	schedpoint.Point("pbq:enq:load-head")
	if t-q.head.Load() > q.mask {
		q.stalls.Add(1)
		return false // full
	}
	slot := int(t&q.mask) * q.slotStride
	schedpoint.Point("pbq:enq:write-slot")
	copy(q.buf[slot:slot+len(msg)], msg)
	q.lens[t&q.mask] = int32(len(msg))
	schedpoint.Point("pbq:enq:publish")
	q.tail.Store(t + 1) // publish: everything written above happens-before the consumer's load
	return true
}

// TryDequeue copies the oldest message into dst and returns its length.
// ok is false when the queue is empty.  dst must be at least as large as the
// buffered message (message semantics, like MPI_Recv: a too-small buffer is
// a program error and panics rather than truncating silently).
func (q *PBQ) TryDequeue(dst []byte) (n int, ok bool) {
	schedpoint.Point("pbq:deq:load-head")
	h := q.head.Load()
	schedpoint.Point("pbq:deq:load-tail")
	if h == q.tail.Load() {
		return 0, false // empty
	}
	idx := h & q.mask
	schedpoint.Point("pbq:deq:read-slot")
	n = int(q.lens[idx])
	if n > len(dst) {
		panic(fmt.Sprintf("queue: receive buffer of %d bytes too small for %d-byte message", len(dst), n))
	}
	slot := int(idx) * q.slotStride
	copy(dst[:n], q.buf[slot:slot+n])
	schedpoint.Point("pbq:deq:release")
	q.head.Store(h + 1) // release the slot to the producer
	return n, true
}

// PeekLen returns the length of the oldest buffered message without
// consuming it.  ok is false when the queue is empty.  Receivers use this to
// size probe-style operations.
func (q *PBQ) PeekLen() (n int, ok bool) {
	schedpoint.Point("pbq:peek:load-head")
	h := q.head.Load()
	schedpoint.Point("pbq:peek:load-tail")
	if h == q.tail.Load() {
		return 0, false
	}
	return int(q.lens[h&q.mask]), true
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

// NewPBQPacked builds a PureBufferQueue whose slots are packed back-to-back
// with no cacheline padding.  The paper identifies avoiding false sharing as
// one of the three key drivers of messaging performance; this constructor
// exists so the claim can be measured (BenchmarkAblationFalseSharing) — do
// not use it for real channels.
func NewPBQPacked(minSlots, maxPayload int) *PBQ {
	if minSlots <= 0 || maxPayload <= 0 {
		panic(fmt.Sprintf("queue: NewPBQPacked(%d, %d): both arguments must be positive", minSlots, maxPayload))
	}
	n := 1
	for n < minSlots {
		n <<= 1
	}
	return &PBQ{
		slotStride: maxPayload,
		maxPayload: maxPayload,
		mask:       uint64(n - 1),
		lens:       make([]int32, n),
		buf:        make([]byte, n*maxPayload),
	}
}
