package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/schedpoint"
)

// chanKey identifies a persistent point-to-point channel: the paper's
// Channel Manager "maps message arguments (e.g., ranks, tags, datatypes,
// etc.) to the appropriate data structure, creating it on-demand if needed".
// Ranks here are global rank ids; comm is the communicator id (messages on
// different communicators never match).
type chanKey struct {
	src, dst int
	tag      int
	comm     uint64
}

// channel is an intra-node point-to-point channel.  The eager (PBQ) and
// rendezvous structures are created lazily on first use of each protocol.
// The pending-request lists are single-owner: sendPend belongs to the sender
// rank and recvPend to the receiver rank, so neither needs a lock.
type channel struct {
	pbqOnce  atomic.Pointer[queue.PBQ]
	rvzOnce  atomic.Pointer[queue.RendezvousChannel]
	sendPend reqList // owned by sender
	recvPend reqList // owned by receiver
	recvSeq  uint64  // rendezvous ticket counter, owned by receiver
}

// reqList is a tiny FIFO of in-flight requests, owned by one rank.  The
// backing array is retained across drain cycles (the offset rewinds to 0
// whenever the list empties), so steady-state push/pop never allocates —
// it only grows to the high-water mark of simultaneously pending requests.
type reqList struct {
	q   []*Request
	off int
}

func (l *reqList) push(r *Request) { l.q = append(l.q, r) }
func (l *reqList) head() *Request {
	if l.off == len(l.q) {
		return nil
	}
	return l.q[l.off]
}
func (l *reqList) pop() {
	l.q[l.off] = nil
	l.off++
	if l.off == len(l.q) {
		l.q = l.q[:0]
		l.off = 0
	}
}

// remoteChannel is an inter-node channel.  In the paper this is MPI_Send /
// MPI_Recv with sender/receiver thread ids encoded in the tag's upper bits;
// here it is an ordered mailbox whose enqueue pays the modeled network cost
// and contends on the destination node's "NIC" lock (the
// MPI_THREAD_MULTIPLE serialization Pure accepts on this path) — or, under a
// real transport, that the link's Deliver upcall fills.  It is only a
// mailbox: sequencing, acks and retransmission belong to the transport.
type remoteChannel struct {
	n    atomic.Int64 // buffered message count (lock-free emptiness probe)
	mu   chanMutex
	msgs [][]byte // ring of n payloads from head; len is zero or a power of two
	head int
	free [][]byte // payload buffers handed back by the receiver, for the next arrival
}

// chanMutex is a tiny spinlock; contention on it plays the role of the MPI
// runtime's internal lock.
type chanMutex struct{ state atomic.Int32 }

func (m *chanMutex) lock() {
	for !m.state.CompareAndSwap(0, 1) {
		gosched()
	}
}
func (m *chanMutex) unlock() { m.state.Store(0) }

// lookupChannel resolves key in the shared channel-manager map, creating the
// persistent intra-node channel on demand (paper §4.1: "we allocate a
// persistent 'channel' object that is stored in the runtime system and is
// reused throughout the program").  This is the endpoint-creation seam: the
// two ranks of a pair race to create the same channel on first use (from
// newEndpoint, once per endpoint), and the schedpoints let the purecheck
// model explore every interleaving of that race.
func lookupChannel(m *sync.Map, key chanKey) *channel {
	schedpoint.Point("core:chan:lookup")
	if v, ok := m.Load(key); ok {
		return v.(*channel)
	}
	schedpoint.Point("core:chan:create")
	v, _ := m.LoadOrStore(key, &channel{})
	return v.(*channel)
}

// remote resolves key's inter-node mailbox, creating it on demand.  Callers
// keep what it returns: an endpoint binds its mailbox once (bindRemote), an
// RMA flow holds its own.
func (rt *Runtime) remote(key chanKey) *remoteChannel {
	if v, ok := rt.remotes.Load(key); ok {
		return v.(*remoteChannel)
	}
	v, _ := rt.remotes.LoadOrStore(key, &remoteChannel{})
	return v.(*remoteChannel)
}

func (ch *channel) pbq(slots, maxPayload int) *queue.PBQ {
	if q := ch.pbqOnce.Load(); q != nil {
		return q
	}
	schedpoint.Point("core:pbq:create")
	q := queue.NewPBQ(slots, maxPayload)
	if ch.pbqOnce.CompareAndSwap(nil, q) {
		return q
	}
	return ch.pbqOnce.Load()
}

func (ch *channel) rvz(depth int) *queue.RendezvousChannel {
	if q := ch.rvzOnce.Load(); q != nil {
		return q
	}
	q := queue.NewRendezvousChannel(depth)
	if ch.rvzOnce.CompareAndSwap(nil, q) {
		return q
	}
	return ch.rvzOnce.Load()
}

// reqKind identifies a request's protocol path.
type reqKind uint8

const (
	reqSendEager reqKind = iota
	reqSendRvz
	reqRecvEager
	reqRecvRvz
	reqRemoteSend
	reqRemoteRecv
	reqRmaRemote // one-sided remote op: done when the target's applied watermark covers flowSeq
	reqRmaGet    // one-sided get: done when the reply frame fills buf
)

// Request is an in-flight nonblocking operation (the analogue of
// MPI_Request).  A request belongs to the rank that created it.
type Request struct {
	kind   reqKind
	ch     *channel
	rem    *remoteChannel
	buf    []byte
	seq    uint64 // rendezvous ticket (recv side)
	peer   int32  // global peer rank (for trace events and wait records)
	tag    int    // message tag (wait-registry diagnostics)
	comm   uint64 // communicator id (wait-registry diagnostics)
	posted bool   // rendezvous recv: envelope pushed
	done   bool
	n      int // bytes transferred (recv side)

	// One-sided (RMA) completion state: a remote Put/Accumulate/Notify is
	// done once flow.applied covers flowSeq (the target applied the frame).
	flow    *rmaFlow
	flowSeq uint64

	// Endpoint request pooling: requests created on a Channel carry their
	// owner and return to its free list when waited, so steady-state
	// nonblocking traffic recycles a handful of request objects instead of
	// allocating one per operation.
	owner      *Channel
	nextFree   *Request
	pooledFree bool
}

// Done reports whether the request has completed.  Completion only advances
// inside Wait/Test/progress calls made by the owning rank.
func (q *Request) Done() bool { return q.done }

// Bytes returns the received byte count of a completed receive request.
func (q *Request) Bytes() int { return q.n }

// EncodeInterNodeTag reproduces the paper's inter-node tag encoding: the
// sender and receiver thread numbers (within their processes) are packed
// into the upper bits of the MPI tag (paper §4.1.3; 6 bits each covered the
// 64 threads per node used in the evaluation).  The mailbox transport does
// not need this — channels are keyed by global ranks — but the encoding is
// kept (and tested) as the documented wire format.
func EncodeInterNodeTag(tag, srcLocal, dstLocal, bits int) (int, error) {
	if bits <= 0 || bits > 12 {
		return 0, fmt.Errorf("core: thread-id field of %d bits out of range", bits)
	}
	limit := 1 << bits
	if srcLocal < 0 || srcLocal >= limit || dstLocal < 0 || dstLocal >= limit {
		return 0, fmt.Errorf("core: thread ids (%d, %d) do not fit in %d bits", srcLocal, dstLocal, bits)
	}
	if tag < 0 || tag >= 1<<(31-2*bits-1) {
		return 0, fmt.Errorf("core: tag %d overflows with 2x%d thread-id bits", tag, bits)
	}
	return tag | srcLocal<<(31-2*bits) | dstLocal<<(31-bits), nil
}

// DecodeInterNodeTag inverts EncodeInterNodeTag.
func DecodeInterNodeTag(enc, bits int) (tag, srcLocal, dstLocal int) {
	mask := 1<<bits - 1
	srcLocal = (enc >> (31 - 2*bits)) & mask
	dstLocal = (enc >> (31 - bits)) & mask
	tag = enc & (1<<(31-2*bits) - 1)
	return
}

// ---- Point-to-point operations (rank-level; Comm wraps these with rank
// translation) ----

// startRemoteSend sends req's buffer on the endpoint's inter-node channel.
// The send completes at post time (MPI buffered-send semantics: the caller
// may reuse the buffer at once): the modeled wire has copied it into the
// destination mailbox, the real transport into the link's resend window,
// where loss, reordering and reconnects are the link protocol's problem.
func (ep *Channel) startRemoteSend(req *Request) {
	r := ep.r
	if r.rt.tp != nil {
		r.tpSendData(chanKey{src: r.id, dst: ep.peer, tag: ep.tag, comm: ep.comm}, req.buf)
	} else {
		r.remoteSend(ep.bindRemote(), ep.peer, req.buf)
	}
	req.done, req.n = true, len(req.buf)
}

// waitKindFor maps a request's protocol path to its wait-registry kind.
func waitKindFor(k reqKind) WaitKind {
	switch k {
	case reqSendEager:
		return WaitP2PSend
	case reqSendRvz:
		return WaitRvzSend
	case reqRecvEager:
		return WaitP2PRecv
	case reqRecvRvz:
		return WaitRvzRecv
	case reqRemoteRecv:
		return WaitRemoteRecv
	case reqRmaRemote, reqRmaGet:
		return WaitRmaRemote
	}
	return WaitNone
}

// waitReq blocks (in the SSW-Loop) until req completes and returns the byte
// count for receives.  While blocked, the rank publishes a wait record so the
// watchdog can name what (and whom) it is waiting on.  Completion releases
// endpoint-pooled requests back to their owner: a request handle must be
// waited exactly once and is dead afterwards.
func (r *Rank) waitReq(req *Request) int {
	if req.done {
		n := req.n
		releaseReq(req)
		return n
	}
	r.pendRec = WaitRecord{
		Kind: waitKindFor(req.kind), Peer: int(req.peer),
		Tag: req.tag, Comm: req.comm, Seq: req.seq,
	}
	// Remote completions on the real transport arrive via the link reader
	// goroutine, so those waits must let the netpoller run; on the modeled
	// network the waiting rank drives delivery itself and keeps spinning.
	idle := r.rt.tp != nil
	switch req.kind {
	case reqRemoteRecv:
		r.leafWaitVia(idle, func() bool {
			if req.done {
				return true
			}
			r.progressRemoteRecv(req)
			return req.done
		})
	case reqRmaRemote:
		// Origin side of a remote one-sided op: apply incoming frames (two
		// origins putting at each other must each drain their inbox), then
		// poll the target's applied watermark.
		r.leafWaitVia(idle, func() bool {
			if req.flow.applied.Load() >= req.flowSeq {
				req.done = true
				return true
			}
			r.rmaProgress()
			if req.flow.applied.Load() >= req.flowSeq {
				req.done = true
			}
			return req.done
		})
	case reqRmaGet:
		// The reply frame arrives on our own inbox; rmaProgress fills buf.
		r.leafWaitVia(idle, func() bool {
			if req.done {
				return true
			}
			r.rmaProgress()
			return req.done
		})
	default:
		ch := req.ch
		r.leafWait(func() bool {
			if req.done {
				return true
			}
			if req.kind == reqSendEager || req.kind == reqSendRvz {
				r.progressSend(ch)
			} else {
				r.progressRecv(ch)
			}
			return req.done
		})
	}
	n := req.n
	releaseReq(req)
	return n
}

// progressSend advances the sender-side pending list head of ch.
func (r *Rank) progressSend(ch *channel) {
	for {
		req := ch.sendPend.head()
		if req == nil {
			return
		}
		switch req.kind {
		case reqSendEager:
			q := ch.pbq(r.rt.cfg.PBQSlots, r.rt.cfg.SmallMsgMax)
			if !q.TryEnqueue(req.buf) {
				return // queue full; retry on next progress call
			}
		case reqSendRvz:
			// Single-copy: claim the receiver's posted envelope, copy the
			// payload straight into the destination buffer, then signal the
			// byte count on the completion queue (paper §4.1.2).
			rz := ch.rvz(r.rt.cfg.RendezvousDepth)
			env, ok := rz.Envelopes.TryPop()
			if !ok {
				return // receiver has not posted yet
			}
			if len(req.buf) > len(env.Dest) {
				panic(fmt.Sprintf("core: %d-byte message overflows %d-byte posted receive buffer",
					len(req.buf), len(env.Dest)))
			}
			n := copy(env.Dest, req.buf)
			for !rz.Completions.TryPush(queue.Completion{Bytes: n, Seq: env.Seq}) {
				r.checkPoison() // receiver may have unwound without draining
				gosched()       // completion ring full: receiver must drain; bounded wait
			}
			r.count(&r.stats.RendezvousHandoffs, 1)
			if r.trace != nil {
				r.trace.Emit(obs.KRendezvousHandoff, req.peer, int64(n))
			}
		}
		req.done = true
		req.n = len(req.buf)
		ch.sendPend.pop()
	}
}

// progressRecv advances the receiver-side pending list head of ch.
func (r *Rank) progressRecv(ch *channel) {
	for {
		req := ch.recvPend.head()
		if req == nil {
			return
		}
		switch req.kind {
		case reqRecvEager:
			q := ch.pbq(r.rt.cfg.PBQSlots, r.rt.cfg.SmallMsgMax)
			n, ok := q.TryDequeue(req.buf)
			if !ok {
				return
			}
			req.n = n
		case reqRecvRvz:
			rz := ch.rvz(r.rt.cfg.RendezvousDepth)
			if !req.posted {
				ch.recvSeq++
				req.seq = ch.recvSeq
				if !rz.Envelopes.TryPush(queue.Envelope{Dest: req.buf, Seq: req.seq}) {
					ch.recvSeq-- // envelope ring full; repost later
					return
				}
				req.posted = true
			}
			c, ok := rz.Completions.Peek()
			if !ok || c.Seq != req.seq {
				return // our transfer has not completed yet (completions are FIFO)
			}
			rz.Completions.TryPop()
			req.n = c.Bytes
		}
		r.note(req.kind, req.peer, req.n)
		req.done = true
		ch.recvPend.pop()
	}
}

// remoteSend delivers buf to rank dst's mailbox rc on another node over the
// modeled wire: pay the wire time, then copy it into the mailbox under the
// destination node's NIC lock.
func (r *Rank) remoteSend(rc *remoteChannel, dst int, buf []byte) {
	r.rt.net.Transfer(len(buf))
	nic := &r.rt.nodes[r.rt.place.NodeOf(dst)].nic
	nic.Lock()
	rc.deposit(buf)
	nic.Unlock()
}

// remoteSendOwned is remoteSend for a payload the caller hands over (a
// freshly encoded RMA frame): no defensive copy.
func (r *Rank) remoteSendOwned(rc *remoteChannel, dst int, buf []byte) {
	r.rt.net.Transfer(len(buf))
	nic := &r.rt.nodes[r.rt.place.NodeOf(dst)].nic
	nic.Lock()
	rc.mu.lock()
	rc.push(buf)
	rc.mu.unlock()
	nic.Unlock()
}

// deposit appends a copy of payload to the mailbox, in a buffer the receiving
// rank handed back when there is one.
func (rc *remoteChannel) deposit(payload []byte) {
	rc.mu.lock()
	cp := rc.takeBuf(len(payload))
	copy(cp, payload)
	rc.push(cp)
	rc.mu.unlock()
}

// push appends one message to the mailbox ring, doubling it when full.
// Caller holds rc.mu.
func (rc *remoteChannel) push(m []byte) {
	n := int(rc.n.Load())
	if n == len(rc.msgs) {
		grown := make([][]byte, max(8, 2*n))
		for i := 0; i < n; i++ {
			grown[i] = rc.msgs[(rc.head+i)&(n-1)]
		}
		rc.msgs, rc.head = grown, 0
	}
	rc.msgs[(rc.head+n)&(len(rc.msgs)-1)] = m
	rc.n.Add(1)
}

// tryPop dequeues the channel's head message, or reports none buffered.
func (rc *remoteChannel) tryPop() ([]byte, bool) {
	rc.mu.lock()
	if rc.n.Load() == 0 {
		rc.mu.unlock()
		return nil, false
	}
	msg := rc.msgs[rc.head]
	rc.msgs[rc.head] = nil
	rc.head = (rc.head + 1) & (len(rc.msgs) - 1)
	rc.n.Add(-1)
	rc.mu.unlock()
	return msg, true
}

// recycle hands a popped payload buffer back once its bytes are copied out,
// for the next deposit to fill again.
func (rc *remoteChannel) recycle(buf []byte) {
	rc.mu.lock()
	rc.free = append(rc.free, buf)
	rc.mu.unlock()
}

// takeBuf returns an n-byte payload buffer, recycled when one is large
// enough.  Caller holds rc.mu.
func (rc *remoteChannel) takeBuf(n int) []byte {
	if k := len(rc.free) - 1; k >= 0 {
		buf := rc.free[k]
		rc.free[k] = nil
		rc.free = rc.free[:k]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// progressRemoteRecv completes a remote receive if a message has arrived:
// copy it out, hand its buffer back, observe it.  TryRecv's inter-node arm is
// this too, on a request of its own.
func (r *Rank) progressRemoteRecv(req *Request) {
	rc := req.rem
	if rc.n.Load() == 0 {
		return
	}
	msg, ok := rc.tryPop()
	if !ok {
		return
	}
	if len(msg) > len(req.buf) {
		panic(fmt.Sprintf("core: %d-byte message overflows %d-byte receive buffer", len(msg), len(req.buf)))
	}
	req.n = copy(req.buf, msg)
	rc.recycle(msg)
	r.note(reqRemoteRecv, req.peer, req.n)
	req.done = true
}
