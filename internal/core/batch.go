package core

import (
	"encoding/binary"
	"fmt"
)

// This file adds the many-small-messages tooling on persistent endpoints:
// batched coalesced sends (one queue enqueue — one slot reservation, one
// release — per *batch* instead of per message), and the non-blocking
// TrySend/TryRecv pair that lets an application express backpressure
// policy (drop vs block) and fan-in receive loops without parking in a
// blocking wait per channel.
//
// Batch wire format, inside one ordinary eager message:
//
//	[count u16] then count × ([len u32][bytes])
//
// Both ends must agree to speak batches on a given endpoint pair:
// SendBatch/TrySendBatch on the send side, RecvBatch/TryRecvBatch on the
// receive side.  A batch frame is just a message, so it rides every
// existing path — PBQ, modeled network, real transport — unchanged.

const (
	batchHeader    = 2 // u16 sub-message count
	batchMsgHeader = 4 // u32 sub-message length
)

// appendBatch encodes msgs into dst's spare capacity.
func appendBatch(dst []byte, msgs [][]byte) []byte {
	var hdr [batchMsgHeader]byte
	binary.LittleEndian.PutUint16(hdr[:2], uint16(len(msgs)))
	dst = append(dst, hdr[:2]...)
	for _, m := range msgs {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(m)))
		dst = append(dst, hdr[:]...)
		dst = append(dst, m...)
	}
	return dst
}

// splitBatch decodes a batch frame into sub-message views of frame's
// backing array, appending to msgs[:0].
func splitBatch(frame []byte, msgs [][]byte) [][]byte {
	if len(frame) < batchHeader {
		panic("core: RecvBatch on a non-batch message (frame shorter than its header)")
	}
	n := int(binary.LittleEndian.Uint16(frame))
	b := frame[batchHeader:]
	msgs = msgs[:0]
	for i := 0; i < n; i++ {
		if len(b) < batchMsgHeader {
			panic("core: RecvBatch frame truncated; sender must use SendBatch on this pair")
		}
		l := int(binary.LittleEndian.Uint32(b))
		b = b[batchMsgHeader:]
		if len(b) < l {
			panic("core: RecvBatch frame truncated; sender must use SendBatch on this pair")
		}
		msgs = append(msgs, b[:l:l])
		b = b[l:]
	}
	return msgs
}

// batchBytes reports the encoded size of a batch.
func batchBytes(msgs [][]byte) int {
	n := batchHeader + batchMsgHeader*len(msgs)
	for _, m := range msgs {
		n += len(m)
	}
	return n
}

// SendBatch coalesces msgs into one frame and sends it as a single message:
// the whole batch pays one enqueue (one PBQ slot reservation/publish, or
// one transport frame) instead of one per message.  The encoded batch must
// stay under the eager threshold — size batches to SmallMsgMax (callers
// that fill to ~N×record bytes get the amortization this exists for) — and
// at most 65535 sub-messages.  The scratch buffer is endpoint-owned, so
// steady-state batching does not allocate.
func (ep *Channel) SendBatch(msgs [][]byte) {
	if ep.dir != epSend {
		ep.badDir("SendBatch")
	}
	ep.encodeBatch(msgs)
	ep.Send(ep.batch)
}

// TrySendBatch is SendBatch under a drop policy: it sends only if the
// message can be enqueued without blocking, reporting false (with nothing
// sent) when the queue is full.  See TrySend for which paths can refuse.
func (ep *Channel) TrySendBatch(msgs [][]byte) bool {
	if ep.dir != epSend {
		ep.badDir("TrySendBatch")
	}
	ep.encodeBatch(msgs)
	return ep.TrySend(ep.batch)
}

func (ep *Channel) encodeBatch(msgs [][]byte) {
	if len(msgs) > 0xffff {
		panic(fmt.Sprintf("core: SendBatch of %d messages exceeds the 65535 limit", len(msgs)))
	}
	if n := batchBytes(msgs); ep.ch != nil && n >= ep.eagerMax {
		panic(fmt.Sprintf("core: SendBatch frame of %d bytes reaches the %d-byte eager limit; flush smaller batches",
			n, ep.eagerMax))
	}
	ep.batch = appendBatch(ep.batch[:0], msgs)
}

// RecvBatch receives one batch frame into buf (which must be able to hold
// the sender's largest frame and stay under the eager threshold) and
// returns the sub-messages as views into buf, appended to msgs[:0].  The
// views are valid until buf is reused.
func (ep *Channel) RecvBatch(buf []byte, msgs [][]byte) [][]byte {
	n := ep.Recv(buf)
	return splitBatch(buf[:n], msgs)
}

// TryRecvBatch is RecvBatch without blocking: ok reports whether a frame
// was dequeued.
func (ep *Channel) TryRecvBatch(buf []byte, msgs [][]byte) ([][]byte, bool) {
	n, ok := ep.TryRecv(buf)
	if !ok {
		return msgs[:0], false
	}
	return splitBatch(buf[:n], msgs), true
}

// TrySend sends buf without blocking if the endpoint can accept it now,
// reporting false (nothing sent, nothing counted) when it cannot.  Only the
// intra-node eager path ever refuses — a full PBQ is the runtime's
// backpressure signal, and TrySend hands that signal to the application as
// a drop-or-block decision instead of parking in sendStall.  Paths with no
// such signal (inter-node links, which buffer at the transport; rendezvous
// sizes, which hand off synchronously) behave exactly like Send and report
// true.
func (ep *Channel) TrySend(buf []byte) bool {
	if ep.dir != epSend {
		ep.badDir("TrySend")
	}
	if ep.ch == nil || len(buf) >= ep.eagerMax {
		ep.Send(buf)
		return true
	}
	if ep.ch.sendPend.head() != nil {
		// Outstanding nonblocking sends own the channel order; give them a
		// push and refuse if any are still queued.
		ep.r.progressSend(ep.ch)
		if ep.ch.sendPend.head() != nil {
			return false
		}
	}
	q := ep.q
	if q == nil {
		q = ep.bindPBQ()
	}
	r := ep.r
	if !q.TryEnqueue(buf) {
		r.count(&r.stats.PBQStallWaits, 1)
		return false
	}
	r.note(reqSendEager, ep.peer32, len(buf))
	if ep.gDepth != nil {
		ep.gDepth.Max(int64(q.Len()))
	}
	return true
}

// TryRecv receives into buf without blocking, reporting false when no
// message is ready.  It works on both intra-node (eager) and inter-node
// endpoints, which makes fan-in loops uniform: probe every source, then
// park in Rank.WaitFor on "any source ready" (see RecvReady) so the
// blocked receiver keeps stealing task chunks.
func (ep *Channel) TryRecv(buf []byte) (int, bool) {
	if ep.dir != epRecv {
		ep.badDir("TryRecv")
	}
	r := ep.r
	if ep.ch == nil {
		req := Request{rem: ep.bindRemote(), buf: buf, peer: ep.peer32}
		r.progressRemoteRecv(&req)
		return req.n, req.done
	}
	if len(buf) >= ep.eagerMax {
		panic(fmt.Sprintf("core: TryRecv buffer of %d bytes is rendezvous-sized (eager limit %d); there is no nonblocking rendezvous receive",
			len(buf), ep.eagerMax))
	}
	if ep.ch.recvPend.head() != nil {
		// Outstanding nonblocking receives own the channel order.
		r.progressRecv(ep.ch)
		if ep.ch.recvPend.head() != nil {
			return 0, false
		}
	}
	q := ep.q
	if q == nil {
		if ep.ch.pbqOnce.Load() == nil {
			return 0, false // sender has not created the queue: nothing sent yet
		}
		q = ep.bindPBQ()
	}
	n, ok := q.TryDequeue(buf)
	if ok {
		r.note(reqRecvEager, ep.peer32, n)
	}
	return n, ok
}

// RecvReady reports whether a TryRecv would find a message now.  It is a
// cheap probe (one atomic load: the eager queue's head slot word, or the
// mailbox count) meant for Rank.WaitFor conditions over many sources.
func (ep *Channel) RecvReady() bool {
	if ep.dir != epRecv {
		ep.badDir("RecvReady")
	}
	if ep.ch == nil {
		return ep.bindRemote().n.Load() > 0
	}
	q := ep.q
	if q == nil {
		if ep.ch.pbqOnce.Load() == nil {
			return false
		}
		q = ep.bindPBQ()
	}
	_, ok := q.PeekLen()
	return ok
}

// bindRemote resolves the endpoint's inter-node mailbox on first use: a
// receive endpoint's on its first receive or probe, a send endpoint's on its
// first send over the modeled wire (the real transport's sender has none:
// the mailbox is in the peer's process).
func (ep *Channel) bindRemote() *remoteChannel {
	if ep.rem == nil {
		key := chanKey{src: ep.peer, dst: ep.r.id, tag: ep.tag, comm: ep.comm}
		if ep.dir == epSend {
			key.src, key.dst = key.dst, key.src
		}
		ep.rem = ep.r.rt.remote(key)
	}
	return ep.rem
}

// WaitFor parks the rank in the SSW-Loop until cond reports true.  This is
// the runtime's own blocking discipline opened to applications: between
// probes the rank steals Pure Task chunks (idle cycles become someone
// else's aggregation work), and a poisoned runtime unwinds the wait like
// any other blocking site, so a rank waiting on application state still
// honours aborts, watchdog diagnostics and dead-node detection.  cond must
// be cheap and side-effect-free on the false path — RecvReady fan-in
// probes, a counter crossing a threshold.
func (r *Rank) WaitFor(cond func() bool) {
	if cond() {
		return
	}
	r.pendRec = WaitRecord{Kind: WaitApp, Peer: -1}
	// With a real transport the condition may be completed by the link
	// reader goroutine; that wait must let the netpoller run (see waitReq).
	r.leafWaitVia(r.rt.tp != nil, cond)
}
