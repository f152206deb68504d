package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/queue"
)

// This file is the persistent-endpoint layer: the paper's channel manager
// resolves "message arguments (e.g., ranks, tags, datatypes, etc.) to the
// appropriate data structure" once, and every later operation on the same
// logical (sender, receiver, tag, comm) pair reuses the resolved object.
// A Channel binds everything the per-call path used to recompute — the
// chanKey hash lookup, the peer-rank translation, the SameNode placement
// test, the eager-queue pointer, and the trace handle — so the steady-state
// Send/Recv fast paths touch only pre-resolved fields and allocate nothing.
// Comm.Send/Recv/Isend/Irecv are thin wrappers over a per-rank
// open-addressed endpoint cache, so legacy callers get the same fast path
// without source changes.

// epDir distinguishes the two halves of a unidirectional channel.
type epDir uint8

const (
	epSend epDir = iota
	epRecv
)

func (d epDir) String() string {
	if d == epSend {
		return "send"
	}
	return "receive"
}

// epKey identifies one cached endpoint in a rank's table.  peer is the
// global rank id; dir keeps a rank's send and receive endpoints for the
// same pair distinct (they front different unidirectional channels).
type epKey struct {
	comm uint64
	peer int32
	tag  int32
	dir  epDir
}

// epHash mixes the key fields with a 64-bit finalizer (splitmix64's) so
// sequential tags and ranks spread across the table.
func epHash(k epKey) uint32 {
	h := k.comm*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.peer))*0x85ebca77c2b2ae63 ^
		uint64(uint32(k.tag))*0xc2b2ae3d27d4eb4f ^
		uint64(k.dir)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// epTable is the per-rank endpoint cache: open-addressed, power-of-two
// sized, linear probing, grown at 50% load.  It is owned by one rank's
// goroutine, so lookups take no locks and the repeat-pair path never
// touches the runtime's shared sync.Map.
type epTable struct {
	keys []epKey
	eps  []*Channel // nil marks an empty slot
	n    int
}

func (t *epTable) lookup(k epKey) *Channel {
	eps := t.eps
	if len(eps) == 0 {
		return nil
	}
	mask := uint32(len(eps) - 1)
	i := epHash(k) & mask
	for {
		ep := eps[i]
		if ep == nil {
			return nil
		}
		if t.keys[i] == k {
			return ep
		}
		i = (i + 1) & mask
	}
}

func (t *epTable) insert(k epKey, ep *Channel) {
	if 2*(t.n+1) > len(t.eps) {
		t.grow()
	}
	mask := uint32(len(t.eps) - 1)
	i := epHash(k) & mask
	for t.eps[i] != nil {
		i = (i + 1) & mask
	}
	t.keys[i], t.eps[i] = k, ep
	t.n++
}

func (t *epTable) grow() {
	oldKeys, oldEps := t.keys, t.eps
	size := 16
	if len(oldEps) > 0 {
		size = len(oldEps) * 2
	}
	t.keys = make([]epKey, size)
	t.eps = make([]*Channel, size)
	mask := uint32(size - 1)
	for i, ep := range oldEps {
		if ep == nil {
			continue
		}
		j := epHash(oldKeys[i]) & mask
		for t.eps[j] != nil {
			j = (j + 1) & mask
		}
		t.keys[j], t.eps[j] = oldKeys[i], ep
	}
}

// Channel is a persistent point-to-point endpoint: one rank's handle on one
// direction of a (sender, receiver, tag, comm) channel.  Obtain endpoints
// from Comm.SendChannel / Comm.RecvChannel; they are cached per rank, so
// repeated calls with the same arguments return the identical object.  A
// Channel belongs to the rank that created it and must not be shared.
//
// Send and Recv are the zero-allocation fast paths for eager payloads
// (len(buf) < SmallMsgMax on an intra-node pair); Isend and Irecv recycle
// request objects through a per-endpoint free list — on inter-node
// endpoints too — so steady-state nonblocking traffic does not allocate
// either.  Each request returned by
// Isend/Irecv must be completed by exactly one Wait/Waitall; completion
// returns it to the pool, after which the handle is dead.
type Channel struct {
	r      *Rank
	peer   int // global peer rank
	peer32 int32
	tag    int
	comm   uint64
	dir    epDir

	eagerMax int            // the eager/rendezvous threshold, resolved once
	ch       *channel       // intra-node channel; nil when the peer is remote
	q        *queue.PBQ     // eager queue, bound on first eager operation
	rem      *remoteChannel // inter-node mailbox, bound on first use (see bindRemote)
	batch    []byte         // SendBatch coalescing scratch, endpoint-owned

	// Pre-resolved observability handles, nil when the layer is off: the
	// rank's trace ring, and the queue-depth high-water gauge senders sample.
	trace  *obs.RankTrace
	gDepth *obs.Gauge

	freeReq *Request // intrusive free list of recycled requests
}

// endpoint returns the rank's cached endpoint for (comm, global peer, tag,
// dir), creating it on first use.
func (r *Rank) endpoint(commID uint64, peer, tag int, dir epDir) *Channel {
	k := epKey{comm: commID, peer: int32(peer), tag: int32(tag), dir: dir}
	if ep := r.eps.lookup(k); ep != nil {
		return ep
	}
	return r.newEndpoint(k)
}

// newEndpoint builds and caches one endpoint: all the per-message work the
// old per-call path repeated — peer validation, placement lookup, channel
// resolution — happens exactly once, here.
func (r *Rank) newEndpoint(k epKey) *Channel {
	peer := int(k.peer)
	if peer == r.id {
		if k.dir == epSend {
			panic("core: self-send is not supported; ranks are threads, use local state")
		}
		panic("core: self-receive is not supported")
	}
	ep := &Channel{
		r: r, peer: peer, peer32: k.peer, tag: int(k.tag), comm: k.comm,
		dir: k.dir, eagerMax: r.rt.cfg.SmallMsgMax, trace: r.trace,
	}
	if r.rt.place.SameNode(r.id, peer) {
		ck := chanKey{src: r.id, dst: peer, tag: ep.tag, comm: k.comm}
		if k.dir == epRecv {
			ck.src, ck.dst = peer, r.id
		}
		ep.ch = lookupChannel(&r.rt.channels, ck)
	}
	if m := r.rt.met; m != nil {
		ep.gDepth = m.pbqDepthMax
	}
	r.eps.insert(k, ep)
	return ep
}

// Peer returns the endpoint's peer as a global rank id.
func (ep *Channel) Peer() int { return ep.peer }

// Tag returns the endpoint's message tag.
func (ep *Channel) Tag() int { return ep.tag }

// bindPBQ resolves the eager queue on the endpoint's first eager operation
// (rendezvous-only channels never pay for PBQ slot storage).
func (ep *Channel) bindPBQ() *queue.PBQ {
	ep.q = ep.ch.pbq(ep.r.rt.cfg.PBQSlots, ep.eagerMax)
	return ep.q
}

func (ep *Channel) badDir(op string) {
	panic(fmt.Sprintf("core: %s on a %s endpoint (peer %d, tag %d)", op, ep.dir, ep.peer, ep.tag))
}

// Send sends buf to the endpoint's peer, blocking until the buffer is
// reusable.  The eager intra-node case with no pending nonblocking sends is
// allocation-free: a bounds check, a pre-resolved queue enqueue, and the
// counter bumps.
func (ep *Channel) Send(buf []byte) {
	if ep.dir != epSend {
		ep.badDir("Send")
	}
	if ep.ch != nil && len(buf) < ep.eagerMax {
		if ep.ch.sendPend.head() == nil {
			q := ep.q
			if q == nil {
				q = ep.bindPBQ()
			}
			ep.r.note(reqSendEager, ep.peer32, len(buf))
			if !q.TryEnqueue(buf) {
				ep.sendStall(q, buf)
			}
			if ep.gDepth != nil {
				ep.gDepth.Max(int64(q.Len())) // depth after the enqueue, as in TrySend
			}
			return
		}
	}
	ep.r.waitReq(ep.Isend(buf))
}

// sendStall is the backpressure slow path: the PureBufferQueue is full, so
// the send parks in the SSW-Loop until the receiver drains a slot.
func (ep *Channel) sendStall(q *queue.PBQ, buf []byte) {
	r := ep.r
	var t0 int64
	if ep.trace != nil {
		t0 = ep.trace.Now()
	}
	r.count(&r.stats.PBQStallWaits, 1)
	r.pendRec = WaitRecord{Kind: WaitP2PSend, Peer: ep.peer, Tag: ep.tag, Comm: ep.comm}
	r.leafWait(func() bool { return q.TryEnqueue(buf) })
	if ep.trace != nil {
		ep.trace.EmitSpan(obs.KPBQStall, ep.peer32, int64(len(buf)), t0)
	}
}

// Recv receives from the endpoint's peer into buf, blocking until delivery;
// it returns the byte count.  The eager intra-node case with no pending
// nonblocking receives dequeues directly, allocation-free.
func (ep *Channel) Recv(buf []byte) int {
	if ep.dir != epRecv {
		ep.badDir("Recv")
	}
	if ep.ch != nil && len(buf) < ep.eagerMax {
		if ep.ch.recvPend.head() == nil {
			q := ep.q
			if q == nil {
				q = ep.bindPBQ()
			}
			n, ok := q.TryDequeue(buf)
			if !ok {
				n = ep.recvStall(q, buf)
			}
			ep.r.note(reqRecvEager, ep.peer32, n)
			return n
		}
	}
	return ep.r.waitReq(ep.Irecv(buf))
}

// recvStall parks in the SSW-Loop until the sender publishes a message.
func (ep *Channel) recvStall(q *queue.PBQ, buf []byte) int {
	r := ep.r
	var n int
	r.pendRec = WaitRecord{Kind: WaitP2PRecv, Peer: ep.peer, Tag: ep.tag, Comm: ep.comm}
	r.leafWait(func() bool {
		var ok bool
		n, ok = q.TryDequeue(buf)
		return ok
	})
	return n
}

// Isend starts a nonblocking send on the endpoint; complete it with
// Wait/Waitall, which recycles the request into the endpoint's pool.
func (ep *Channel) Isend(buf []byte) *Request {
	if ep.dir != epSend {
		ep.badDir("Isend")
	}
	r := ep.r
	req := ep.getReq()
	req.ch, req.buf = ep.ch, buf
	req.peer, req.tag, req.comm = ep.peer32, ep.tag, ep.comm
	switch {
	case ep.ch == nil:
		req.kind = reqRemoteSend
	case len(buf) < ep.eagerMax:
		req.kind = reqSendEager
	default:
		req.kind = reqSendRvz
	}
	r.note(req.kind, ep.peer32, len(buf))
	if ep.ch == nil {
		ep.startRemoteSend(req)
		return req
	}
	ep.ch.sendPend.push(req)
	r.progressSend(ep.ch)
	return req
}

// Irecv starts a nonblocking receive on the endpoint; complete it with
// Wait/Waitall, which recycles the request into the endpoint's pool.
func (ep *Channel) Irecv(buf []byte) *Request {
	if ep.dir != epRecv {
		ep.badDir("Irecv")
	}
	r := ep.r
	req := ep.getReq()
	req.ch, req.buf = ep.ch, buf
	req.peer, req.tag, req.comm = ep.peer32, ep.tag, ep.comm
	if ep.ch == nil {
		req.kind, req.rem = reqRemoteRecv, ep.bindRemote()
		return req
	}
	if len(buf) < ep.eagerMax {
		req.kind = reqRecvEager
	} else {
		req.kind = reqRecvRvz
	}
	ep.ch.recvPend.push(req)
	r.progressRecv(ep.ch)
	return req
}

// getReq takes a request from the endpoint's pool, or allocates the pool's
// next entry when all are in flight (steady state never allocates: each
// completed request returns to the free list in waitReq).
func (ep *Channel) getReq() *Request {
	req := ep.freeReq
	if req == nil {
		return &Request{owner: ep}
	}
	ep.freeReq = req.nextFree
	*req = Request{owner: ep}
	return req
}

// releaseReq returns a completed pooled request to its owning endpoint.
// RMA requests (owner == nil) are never pooled.  The pooledFree guard makes a
// redundant Wait on an already-completed request harmless (it was already
// harmless before pooling) instead of corrupting the free list.
func releaseReq(req *Request) {
	ep := req.owner
	if ep == nil || req.pooledFree {
		return
	}
	req.pooledFree = true
	req.buf = nil
	req.nextFree = ep.freeReq
	ep.freeReq = req
}

// ---- Persistent operations (the MPI_Send_init / MPI_Recv_init analogue,
// which mpi2pure targets) ----

// PersistentOp binds an endpoint to a fixed buffer once; Start posts the
// operation and Wait completes it, any number of times.  This is the
// analogue of MPI's persistent requests (MPI_Send_init / MPI_Recv_init /
// MPI_Start / MPI_Wait), which Pure's persistent channels implement for
// free: Start is exactly a pooled Isend/Irecv on the prebound endpoint.
type PersistentOp struct {
	ep  *Channel
	buf []byte
	req *Request
}

// SendInit creates a persistent send of buf to dst with tag.
func (c *Comm) SendInit(buf []byte, dst, tag int) *PersistentOp {
	return &PersistentOp{ep: c.SendChannel(dst, tag), buf: buf}
}

// RecvInit creates a persistent receive into buf from src with tag.
func (c *Comm) RecvInit(buf []byte, src, tag int) *PersistentOp {
	return &PersistentOp{ep: c.RecvChannel(src, tag), buf: buf}
}

// Start posts the operation (MPI_Start).  The previous start must have been
// completed with Wait.
func (p *PersistentOp) Start() {
	if p.req != nil {
		panic("core: Start on a persistent operation whose previous start was not waited")
	}
	if p.ep.dir == epSend {
		p.req = p.ep.Isend(p.buf)
	} else {
		p.req = p.ep.Irecv(p.buf)
	}
}

// Wait completes the outstanding start and returns the byte count for
// receives.  Waiting an unstarted op is a no-op (MPI_REQUEST_NULL).
func (p *PersistentOp) Wait() int {
	req := p.req
	if req == nil {
		return 0
	}
	p.req = nil
	return p.ep.r.waitReq(req)
}

// Startall posts every operation (MPI_Startall).  Receives are posted
// before sends so a symmetric exchange cannot deadlock on rendezvous pairs.
func Startall(ops ...*PersistentOp) {
	for _, p := range ops {
		if p != nil && p.ep.dir == epRecv {
			p.Start()
		}
	}
	for _, p := range ops {
		if p != nil && p.ep.dir == epSend {
			p.Start()
		}
	}
}

// WaitallOps completes every operation (the persistent-op MPI_Waitall).
func WaitallOps(ops ...*PersistentOp) {
	for _, p := range ops {
		if p != nil {
			p.Wait()
		}
	}
}
