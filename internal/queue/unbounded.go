package queue

import (
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/schedpoint"
)

// Unbounded is a lock-free, unbounded single-producer/single-consumer queue
// of byte payloads: the inter-node mailbox a link reader delivers frames
// into and the receiving rank drains.  It is Vyukov's unbounded SPSC queue
// with a node cache.  The nodes form one singly linked list: head is the
// consumer's dummy node, the payloads are in the nodes after it up to tail,
// and the nodes before head, from first on, are the consumer's leftovers,
// which the producer takes back before it allocates.  Each node keeps its
// payload buffer when it is reused, and a node whose buffer is too small
// takes the head node's, so a ping-pong cycles two nodes and one buffer, a
// stream reuses a cache as deep as its largest backlog, and neither
// allocates once warm.  The cache never shrinks.  A node that comes back
// holding a buffer larger than bufKeep bytes gets a fresh one, so one huge
// payload does not pin its buffer for the queue's life.
//
// Per message the producer stores twice, both atomically: a reused node's
// next is reset to nil, and the previous tail's next publishes the node
// once the payload is copied in.  The consumer stores once: moving head
// past the payload it has read hands the node back.  The producer loads
// head only when its cache looks empty.  No lock, no yield, no
// read-modify-write.
//
// Exactly one goroutine may produce and one may consume at a time; either
// role may move to another goroutine through a happens-before edge.  The
// runtime's producer is the link reader: a link delivers under its receive
// lock, and a mailbox's source rank lives on exactly one peer node, so
// deliveries into one mailbox are serialized, also when a reader of a
// replaced connection and the current one both deliver (the role moves
// between them through that lock).  Its consumer is the receiving rank's
// goroutine.
type Unbounded struct {
	_    layout.Pad
	head atomic.Pointer[unode] // consumer's dummy node; the producer reads it
	_    layout.Pad
	// Private to the producer: the newest node, the oldest cached one, and
	// the last value of head it loaded (first may advance up to it).
	tail, first, headCopy *unode
	_                     layout.Pad
}

// unode is one list node, padded to a cacheline so that the node the
// producer is filling and the one the consumer is reading never share one.
type unode struct {
	next atomic.Pointer[unode]
	buf  []byte
	_    [layout.CachelineBytes - 32]byte
}

// bufKeep is the largest payload buffer a reused node keeps.
const bufKeep = 1 << 20

// NewUnbounded returns an empty queue.
func NewUnbounded() *Unbounded {
	n := new(unode)
	q := &Unbounded{tail: n, first: n, headCopy: n}
	q.head.Store(n)
	return q
}

// Put appends a copy of p.  It never blocks and never fails; only the
// producer may call it.
func (q *Unbounded) Put(p []byte) {
	n := q.node()
	if cap(n.buf) < len(p) {
		// The head node's buffer is free as well: the consumer reads the
		// payloads of the nodes after head only.  Taking it lets a
		// ping-pong cycle one buffer through its two nodes.
		if h := q.headCopy; cap(h.buf) >= len(p) && cap(h.buf) <= bufKeep {
			n.buf, h.buf = h.buf, n.buf
		} else {
			n.buf = make([]byte, len(p))
		}
	}
	schedpoint.Point("ubq:put:write")
	n.buf = n.buf[:copy(n.buf[:len(p)], p)]
	schedpoint.Point("ubq:put:publish")
	q.tail.next.Store(n) // publish: the payload written above happens-before the consumer's load
	q.tail = n
}

// node returns a node for the next payload: a cached one the consumer has
// moved past, else a new one.  A cached node is the producer's alone: the
// consumer never looks behind head again.
func (q *Unbounded) node() *unode {
	if q.first == q.headCopy {
		schedpoint.Point("ubq:put:load-head")
		q.headCopy = q.head.Load()
		if q.first == q.headCopy {
			return new(unode)
		}
	}
	n := q.first
	schedpoint.Point("ubq:put:reuse") // one point for both: the node is private
	q.first = n.next.Load()
	n.next.Store(nil)
	if cap(n.buf) > bufKeep {
		n.buf = nil
	}
	return n
}

// Front returns the oldest payload without removing it, or ok false when
// the queue is empty.  The payload is neither moved nor written until
// Release.  Only the consumer may call it; as a probe it is one atomic load
// (of the head node's link; head itself is the consumer's own).
func (q *Unbounded) Front() (p []byte, ok bool) {
	schedpoint.Point("ubq:front:load-next")
	n := q.head.Load().next.Load()
	if n == nil {
		return nil, false
	}
	return n.buf, true
}

// Release removes the payload Front returned and hands its node back to
// the producer.  Only the consumer may call it, after a Front that
// reported ok.  It re-reads the link Front found set, which no one writes
// again while its node is head: that load is no step of the protocol.
func (q *Unbounded) Release() {
	n := q.head.Load().next.Load()
	if n == nil {
		panic("queue: Release on an empty Unbounded")
	}
	schedpoint.Point("ubq:release:store-head")
	q.head.Store(n)
}
