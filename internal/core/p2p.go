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
	rvzOnce  atomic.Pointer[queue.Rendezvous]
	sendPend reqList // owned by sender
	recvPend reqList // owned by receiver
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

// remote resolves key's inter-node mailbox, creating it on demand.  In the
// paper a cross-node message is MPI_Send / MPI_Recv with sender/receiver
// thread ids encoded in the tag's upper bits; here a link frame carries the
// global source and destination ranks, and the link's Deliver upcall copies
// its payload into this mailbox (tpDeliver).  It is only a mailbox:
// sequencing, acks and reconnect replays belong to the transport.  Callers
// keep what it returns: a receive endpoint binds its mailbox once
// (bindRemote), an RMA inbox holds its own, a link reader memoizes its last
// one (deliverMemo).
func (rt *Runtime) remote(key chanKey) *queue.Unbounded {
	if v, ok := rt.remotes.Load(key); ok {
		return v.(*queue.Unbounded)
	}
	v, _ := rt.remotes.LoadOrStore(key, queue.NewUnbounded())
	return v.(*queue.Unbounded)
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

func (ch *channel) rvz() *queue.Rendezvous {
	if c := ch.rvzOnce.Load(); c != nil {
		return c
	}
	c := new(queue.Rendezvous)
	if ch.rvzOnce.CompareAndSwap(nil, c) {
		return c
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
	rem    *queue.Unbounded
	buf    []byte
	seq    uint64 // RMA get sequence (wait-registry diagnostics)
	peer   int32  // global peer rank (for trace events and wait records)
	tag    int    // message tag (wait-registry diagnostics)
	comm   uint64 // communicator id (wait-registry diagnostics)
	posted bool   // rendezvous recv: buffer posted in the channel's cell
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

// ---- Point-to-point operations (rank-level; Comm wraps these with rank
// translation) ----

// startRemoteSend sends req's buffer on the endpoint's inter-node channel.
// The send completes at post time (MPI buffered-send semantics: the caller
// may reuse the buffer at once): the link has copied it into its resend
// window, where loss, reordering and reconnects are the link protocol's
// problem.
func (ep *Channel) startRemoteSend(req *Request) {
	r := ep.r
	r.tpSendData(chanKey{src: r.id, dst: ep.peer, tag: ep.tag, comm: ep.comm}, req.buf)
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
	rec := WaitRecord{
		Kind: waitKindFor(req.kind), Peer: int(req.peer),
		Tag: req.tag, Comm: req.comm, Seq: req.seq,
	}
	// Remote completions arrive via a link reader goroutine, so those waits
	// park and let it run.
	switch req.kind {
	case reqRemoteRecv:
		r.block(rec, true, func() bool {
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
		r.block(rec, true, func() bool {
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
		r.block(rec, true, func() bool {
			if req.done {
				return true
			}
			r.rmaProgress()
			return req.done
		})
	default:
		ch := req.ch
		r.block(rec, false, func() bool {
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
			// Single-copy: fill the receiver's posted buffer straight from
			// ours and publish the byte count in the same cell (paper §4.1.2).
			if !ch.rvz().TrySend(req.buf) {
				return // receiver has not posted yet
			}
			r.count(&r.stats.RendezvousHandoffs, 1)
			if r.trace != nil {
				r.trace.Emit(obs.KRendezvousHandoff, req.peer, int64(len(req.buf)))
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
			// Only the list head is ever posted, and it stays the head until
			// taken, so the channel's one cell is all the queue it needs.
			c := ch.rvz()
			if !req.posted {
				c.Post(req.buf)
				req.posted = true
			}
			n, ok := c.TryTake()
			if !ok {
				return
			}
			req.n = n
		}
		r.note(req.kind, req.peer, req.n)
		req.done = true
		ch.recvPend.pop()
	}
}

// progressRemoteRecv completes a remote receive if a message has arrived:
// copy it out, hand its node back to the link reader, observe it.
// TryRecv's inter-node arm is this too, on a request of its own.
func (r *Rank) progressRemoteRecv(req *Request) {
	msg, ok := req.rem.Front()
	if !ok {
		return
	}
	if len(msg) > len(req.buf) {
		panic(fmt.Sprintf("core: %d-byte message overflows %d-byte receive buffer", len(msg), len(req.buf)))
	}
	req.n = copy(req.buf, msg)
	req.rem.Release()
	r.note(reqRemoteRecv, req.peer, req.n)
	req.done = true
}
