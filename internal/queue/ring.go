// Package queue provides the lock-free single-producer/single-consumer
// structures at the heart of Pure's intra-node messaging (paper §4.1):
//
//   - PBQ: the PureBufferQueue, a circular queue of fixed, cacheline-aligned
//     payload slots used for short messages (two-copy, buffered protocol);
//   - Ring[T]: a generic SPSC ring used for rendezvous envelopes (the
//     receiver's posted buffer metadata) and completion notifications
//     (byte counts) for large messages (one-copy protocol).
//
// All queues synchronize exclusively through sync/atomic publication.  A
// Ring publishes through its indices: the producer writes a slot and then
// atomically advances the tail; the consumer atomically loads the tail
// before reading the slot and advances the head after it is done.  A PBQ
// publishes in the slot: each slot carries a state word beside its payload
// (0 = empty, len+1 = full) that the producer stores after writing the
// payload and the consumer clears after reading it, so a short message moves
// one cacheline and neither side reads the other's index.  Go's memory model
// makes each atomic store/load pair a happens-before edge, which is strictly
// stronger than the C++ acquire-release the paper relies on, so the same
// single-owner slot discipline is sound here.
package queue

import (
	"fmt"
	"sync/atomic"

	"repro/internal/schedpoint"
)

// CachelineBytes is the coherence granularity the queues pad to.  64 bytes
// matches the Haswell nodes in the paper and every mainstream x86/arm64 part.
const CachelineBytes = 64

// pad is inserted between producer-owned and consumer-owned fields so the
// head and tail indices never share a cacheline (avoiding the false sharing
// the paper calls out as a key performance driver).
type pad [CachelineBytes]byte

// Ring is a bounded lock-free single-producer/single-consumer ring of values.
// The zero value is not usable; construct with NewRing.  Exactly one
// goroutine may call TryPush and exactly one may call TryPop.
type Ring[T any] struct {
	mask  uint64
	slots []T

	_    pad
	head atomic.Uint64 // next index to pop; owned by the consumer
	_    pad
	tail atomic.Uint64 // next index to push; owned by the producer
	_    pad
}

// NewRing creates a ring with capacity for at least minSlots values
// (rounded up to a power of two).
func NewRing[T any](minSlots int) *Ring[T] {
	if minSlots <= 0 {
		panic(fmt.Sprintf("queue: ring capacity must be positive, got %d", minSlots))
	}
	n := 1
	for n < minSlots {
		n <<= 1
	}
	return &Ring[T]{mask: uint64(n - 1), slots: make([]T, n)}
}

// Cap returns the ring's slot count.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Len returns the number of buffered values.  It is exact only when called
// by the producer or consumer; other callers get a snapshot, clamped to
// [0, Cap] (the head is loaded first, so a concurrent push/pop pair between
// the two loads inflates rather than underflows the difference).
func (r *Ring[T]) Len() int {
	schedpoint.Point("ring:len:load-head")
	h := r.head.Load()
	schedpoint.Point("ring:len:load-tail")
	n := r.tail.Load() - h
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	return int(n)
}

// TryPush appends v and reports whether space was available.
func (r *Ring[T]) TryPush(v T) bool {
	schedpoint.Point("ring:push:load-tail")
	t := r.tail.Load()
	schedpoint.Point("ring:push:load-head")
	if t-r.head.Load() >= uint64(len(r.slots)) {
		return false // full
	}
	schedpoint.Point("ring:push:write-slot")
	r.slots[t&r.mask] = v
	schedpoint.Point("ring:push:publish")
	r.tail.Store(t + 1)
	return true
}

// TryPop removes the oldest value and reports whether one was available.
func (r *Ring[T]) TryPop() (v T, ok bool) {
	schedpoint.Point("ring:pop:load-head")
	h := r.head.Load()
	schedpoint.Point("ring:pop:load-tail")
	if h == r.tail.Load() {
		return v, false // empty
	}
	idx := h & r.mask
	schedpoint.Point("ring:pop:read-slot")
	v = r.slots[idx]
	var zero T
	r.slots[idx] = zero // drop references so payload buffers can be collected
	schedpoint.Point("ring:pop:release")
	r.head.Store(h + 1)
	return v, true
}

// Peek returns the oldest value without removing it.
func (r *Ring[T]) Peek() (v T, ok bool) {
	schedpoint.Point("ring:peek:load-head")
	h := r.head.Load()
	schedpoint.Point("ring:peek:load-tail")
	if h == r.tail.Load() {
		return v, false
	}
	return r.slots[h&r.mask], true
}
