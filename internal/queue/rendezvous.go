package queue

import (
	"fmt"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/schedpoint"
)

// Rendezvous is the large-message handoff cell of one channel (paper
// §4.1.2): the receiver posts its destination buffer, the sender copies its
// payload straight into it — the protocol's single copy — and publishes the
// byte count in the same word that said the buffer was posted, and the
// receiver takes the count and frees the cell.  The state word is 0 while
// the cell is free, 1 while a receive is posted and n+2 once the sender has
// copied n bytes; the word and the buffer header share one cacheline,
// padded off from their neighbours.  Neither side keeps or reads a
// position.
//
// The cell holds one receive at a time, and Post enforces it: a channel
// completes its receives in order and only ever posts the oldest, so a
// deeper queue would never hold more than one.  The zero value is a free
// cell.  Exactly one goroutine may receive (Post, TryTake) and one may send
// (TrySend).
type Rendezvous struct {
	_     layout.Pad
	state atomic.Uint64
	dest  []byte // written by Post while free, read by TrySend while posted
	_     layout.Pad
}

// Post offers dst as the destination of the next handoff.  It panics if a
// previous post has not been taken yet.
func (c *Rendezvous) Post(dst []byte) {
	schedpoint.Point("rvz:post:load-state")
	if s := c.state.Load(); s != 0 {
		panic(fmt.Sprintf("queue: Rendezvous.Post with a receive still outstanding (state %d)", s))
	}
	schedpoint.Point("rvz:post:write-dest")
	c.dest = dst
	schedpoint.Point("rvz:post:publish")
	c.state.Store(1) // publish: dest written above happens-before the sender's load
}

// TrySend copies src into the posted buffer and publishes its length.  It
// reports false when nothing is posted (or its previous handoff has not been
// taken).  A src larger than the posted buffer is a program error and panics
// without consuming the post, like a too-small PBQ receive buffer.
func (c *Rendezvous) TrySend(src []byte) bool {
	schedpoint.Point("rvz:send:load-state")
	if c.state.Load() != 1 {
		return false
	}
	if len(src) > len(c.dest) {
		panic(fmt.Sprintf("queue: %d-byte message overflows %d-byte posted receive buffer", len(src), len(c.dest)))
	}
	schedpoint.Point("rvz:send:copy")
	n := copy(c.dest, src)
	schedpoint.Point("rvz:send:publish")
	c.state.Store(uint64(n) + 2) // publish: the copy happens-before the receiver's load
	return true
}

// TryTake completes the posted receive: once the sender has filled the
// buffer it frees the cell and returns the byte count.  ok is false while
// the handoff has not happened.
func (c *Rendezvous) TryTake() (n int, ok bool) {
	schedpoint.Point("rvz:take:load-state")
	s := c.state.Load()
	if s < 2 {
		return 0, false
	}
	c.dest = nil // the buffer is the caller's again; do not pin it
	schedpoint.Point("rvz:take:release")
	c.state.Store(0)
	return int(s - 2), true
}
