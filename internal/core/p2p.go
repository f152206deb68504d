package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/queue"
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

// netMsg is one mailbox entry.  seq is only meaningful on the reliable
// (fault-injected) path, where the link layer sequences, deduplicates and
// acknowledges messages; the fault-free fast path leaves it zero.
type netMsg struct {
	seq     uint64
	payload []byte
}

// remoteChannel is an inter-node channel.  In the paper this is MPI_Send /
// MPI_Recv with sender/receiver thread ids encoded in the tag's upper bits;
// here it is an ordered mailbox whose enqueue pays the modeled network cost
// and contends on the destination node's "NIC" lock (the
// MPI_THREAD_MULTIPLE serialization Pure accepts on this path).
//
// When fault injection is active the channel additionally runs a link-layer
// ack/retransmit protocol: the (single) sending rank stamps each message with
// a sequence number, the receiving NIC accepts messages in order — stashing
// out-of-order arrivals, discarding duplicates — and publishes the highest
// contiguous sequence in arrived, which doubles as the (shared-memory) ack
// the sender polls.  Injected drops are recovered by retransmission with
// exponential backoff under a retry budget.
type remoteChannel struct {
	n    atomic.Int64 // buffered message count (lock-free emptiness probe)
	mu   chanMutex
	msgs []netMsg // ring of n entries from head; len is zero or a power of two
	head int
	free [][]byte // payload buffers handed back by the receiver, for tpDeliver

	// Reliable-path state (untouched on the fault-free path).
	sendSeq uint64            // last sequence assigned; owned by the sending rank
	arrived atomic.Uint64     // highest contiguous seq accepted into msgs (the ack)
	pending map[uint64][]byte // out-of-order arrivals keyed by seq (guarded by mu)
	hold    *netMsg           // reorder-injection hold slot (guarded by mu)
	dupes   int64             // duplicates discarded at the NIC (guarded by mu)
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

// getChannel returns the persistent intra-node channel for key, creating it
// on demand (paper §4.1: "we allocate a persistent 'channel' object that is
// stored in the runtime system and is reused throughout the program").
func (r *Rank) getChannel(key chanKey) *channel {
	if ch, ok := r.chanCache[key]; ok {
		return ch
	}
	ch := lookupChannel(&r.rt.channels, key)
	r.chanCache[key] = ch
	return ch
}

// lookupChannel resolves key in the shared channel-manager map, creating the
// channel on demand.  This is the endpoint-creation seam: the two ranks of a
// pair race to create the same channel on first use (typically from
// newEndpoint), and the schedpoints let the purecheck model explore every
// interleaving of that race.
func lookupChannel(m *sync.Map, key chanKey) *channel {
	schedpoint("core:chan:lookup")
	if v, ok := m.Load(key); ok {
		return v.(*channel)
	}
	schedpoint("core:chan:create")
	v, _ := m.LoadOrStore(key, &channel{})
	return v.(*channel)
}

func (r *Rank) getRemote(key chanKey) *remoteChannel {
	if ch, ok := r.remCache[key]; ok {
		return ch
	}
	v, _ := r.rt.remotes.LoadOrStore(key, &remoteChannel{})
	ch := v.(*remoteChannel)
	r.remCache[key] = ch
	return ch
}

func (ch *channel) pbq(slots, maxPayload int) *queue.PBQ {
	if q := ch.pbqOnce.Load(); q != nil {
		return q
	}
	schedpoint("core:pbq:create")
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
	seq    uint64 // rendezvous ticket (recv side) or remote link sequence
	peer   int32  // global peer rank (for trace events and wait records)
	tag    int    // message tag (wait-registry diagnostics)
	comm   uint64 // communicator id (wait-registry diagnostics)
	posted bool   // rendezvous recv: envelope pushed
	done   bool
	n      int // bytes transferred (recv side)

	// Reliable remote-send state (fault-injected runs only).
	dstNode  int       // destination node (for the NIC lock on retransmit)
	attempts int       // transmit attempts so far
	retryAt  time.Time // when the next retransmit is due

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

// startRemoteSend starts the send of buf on the inter-node channel key,
// filling in req (fresh from the endpoint's pool).  On the real transport and
// on the fault-free modeled wire the send completes at post time (MPI
// buffered-send semantics: the caller may reuse buf at once); with fault
// injection Wait/Test drive retransmits until the receiving NIC acks.
func (r *Rank) startRemoteSend(req *Request, key chanKey, buf []byte) {
	r.stats.BytesSent += int64(len(buf))
	r.stats.SendsRemote++
	if r.trace != nil {
		r.trace.Emit(obs.KSendRemote, int32(key.dst), int64(len(buf)))
	}
	if r.met != nil {
		r.met.countSend(reqRemoteSend, len(buf))
	}
	req.kind, req.buf = reqRemoteSend, buf
	req.peer, req.tag, req.comm = int32(key.dst), key.tag, key.comm
	switch {
	case r.rt.tp != nil:
		// The link copies the payload into its resend window at send time;
		// loss, reordering and reconnects are the link protocol's problem.
		r.tpSendData(key, buf)
		req.done, req.n = true, len(buf)
	case !r.rt.net.FaultsActive():
		r.remoteSend(key, buf)
		req.done = true
	default:
		// Reliable path: stamp a link sequence, transmit attempt 1, and let
		// Wait/Test drive retransmits until the receiving NIC acks.
		rc := r.getRemote(key)
		rc.sendSeq++ // channels are SPSC: this rank is the only sender
		req.rem = rc
		req.seq = rc.sendSeq
		req.dstNode = r.rt.place.NodeOf(key.dst)
		r.transmitRemote(req)
	}
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
	case reqRemoteSend:
		return WaitRemoteAck
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
	case reqRemoteSend:
		// Reliable path only (fault-free remote sends complete at post time):
		// poll the receiver NIC's ack watermark, retransmitting on timeout.
		r.leafWaitVia(idle, func() bool {
			if req.done {
				return true
			}
			r.progressRemoteSend(req)
			return req.done
		})
	case reqRemoteRecv:
		r.leafWaitVia(idle, func() bool {
			if req.done {
				return true
			}
			r.progressRemoteRecv(req)
			return req.done
		})
	case reqRmaRemote:
		// Origin side of a remote one-sided op: drive our own frame
		// retransmits and apply incoming frames (two origins putting at
		// each other must each drain their inbox), then poll the target's
		// applied watermark.
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
			if r.trace != nil {
				r.trace.Emit(obs.KRendezvousHandoff, req.peer, int64(n))
			}
			if r.met != nil {
				r.met.rvzHandoffs.Inc()
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
			r.stats.BytesReceived += int64(n)
			if r.trace != nil {
				r.trace.Emit(obs.KRecvEager, req.peer, int64(n))
			}
			if r.met != nil {
				r.met.recvsEager.Inc()
				r.met.bytesReceived.Add(int64(n))
			}
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
			r.stats.BytesReceived += int64(c.Bytes)
			if r.trace != nil {
				r.trace.Emit(obs.KRecvRendezvous, req.peer, int64(c.Bytes))
			}
			if r.met != nil {
				r.met.recvsRvz.Inc()
				r.met.bytesReceived.Add(int64(c.Bytes))
			}
		}
		req.done = true
		ch.recvPend.pop()
	}
}

// remoteSend delivers buf to a rank on another node: pay the modeled wire
// time, then append to the destination mailbox under the destination node's
// NIC lock.  Fault-free fast path only; the reliable path goes through
// transmitRemote.
func (r *Rank) remoteSend(key chanKey, buf []byte) {
	cp := make([]byte, len(buf))
	copy(cp, buf)
	r.remoteSendOwned(key, cp)
}

// remoteSendOwned is remoteSend for a payload the caller hands over (a
// freshly encoded RMA frame): no defensive copy.
func (r *Rank) remoteSendOwned(key chanKey, buf []byte) {
	rc := r.getRemote(key)
	r.rt.net.Transfer(len(buf))
	dstNode := r.rt.place.NodeOf(key.dst)
	nic := &r.rt.nodes[dstNode].nic
	nic.Lock()
	rc.mu.lock()
	rc.push(netMsg{payload: buf})
	rc.mu.unlock()
	nic.Unlock()
}

// transmitRemote pushes one (re)transmission of a reliable remote send onto
// the wire, letting the fault injector drop, duplicate, reorder or delay it.
// The ack is the receiving channel's arrived watermark, advanced under the
// NIC lock by whoever delivers the missing sequence — which, because acks are
// modeled as free shared-memory reads, the sender observes without the
// receiver ever posting a matching recv.
func (r *Rank) transmitRemote(req *Request) {
	req.attempts++
	req.retryAt = time.Now().Add(r.rt.net.RetryBackoff(req.attempts))
	net := r.rt.net
	v := net.Inject()
	if v.Drop {
		return // the wire ate it; Wait will retransmit after the backoff
	}
	cp := make([]byte, len(req.buf))
	copy(cp, req.buf)
	net.TransferExtra(len(req.buf), v.ExtraNs)
	rc := req.rem
	nic := &r.rt.nodes[req.dstNode].nic
	nic.Lock()
	rc.mu.lock()
	rc.deliver(netMsg{seq: req.seq, payload: cp}, v.Reorder)
	if v.Dup {
		rc.deliver(netMsg{seq: req.seq, payload: cp}, false)
	}
	rc.mu.unlock()
	nic.Unlock()
}

// deliver runs the receiving NIC's link-layer accept logic for one arriving
// frame.  Caller holds rc.mu (and the node NIC lock).  A Reorder verdict
// parks the frame in the one-slot hold; the next arrival (or retransmit)
// releases it afterwards, swapping their order on an in-order stream.
func (rc *remoteChannel) deliver(m netMsg, reorder bool) {
	if held := rc.hold; held != nil {
		rc.hold = nil
		rc.accept(m)
		rc.accept(*held)
		return
	}
	if reorder {
		rc.hold = &m
		return
	}
	rc.accept(m)
}

// accept sequences one frame into the mailbox: duplicates (at or below the
// watermark, or already stashed) are discarded, out-of-order arrivals are
// stashed, and the in-order frame is appended along with any stashed
// successors it unblocks.  Advancing arrived is the ack.
func (rc *remoteChannel) accept(m netMsg) {
	want := rc.arrived.Load() + 1
	switch {
	case m.seq < want:
		rc.dupes++
	case m.seq > want:
		if rc.pending == nil {
			rc.pending = make(map[uint64][]byte)
		}
		if _, ok := rc.pending[m.seq]; ok {
			rc.dupes++
			return
		}
		rc.pending[m.seq] = m.payload
	default:
		rc.push(m)
		for {
			want++
			p, ok := rc.pending[want]
			if !ok {
				break
			}
			delete(rc.pending, want)
			rc.push(netMsg{seq: want, payload: p})
		}
		rc.arrived.Store(want - 1)
	}
}

// progressRemoteSend advances a reliable remote send: done once the receiver
// NIC's watermark covers our sequence; otherwise retransmit when the backoff
// expires, poisoning the runtime when the retry budget runs out.
func (r *Rank) progressRemoteSend(req *Request) {
	if req.rem.arrived.Load() >= req.seq {
		req.done = true
		req.n = len(req.buf)
		return
	}
	if time.Now().Before(req.retryAt) {
		return
	}
	if req.attempts >= r.rt.net.RetryBudget() {
		if r.met != nil {
			r.met.netRetryExhausted.Inc()
		}
		r.rt.poison(CauseNetDead, fmt.Sprintf(
			"rank %d: remote send seq %d to rank %d (tag %d) unacked after %d attempts: retry budget exhausted",
			r.id, req.seq, req.peer, req.tag, req.attempts), "", nil)
		r.checkPoison() // unwinds
	}
	if r.met != nil {
		r.met.netRetransmits.Inc()
	}
	r.transmitRemote(req)
}

// push appends one message to the mailbox ring, doubling it when full.
// Caller holds rc.mu.
func (rc *remoteChannel) push(m netMsg) {
	n := int(rc.n.Load())
	if n == len(rc.msgs) {
		grown := make([]netMsg, max(8, 2*n))
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
	msg := rc.msgs[rc.head].payload
	rc.msgs[rc.head] = netMsg{}
	rc.head = (rc.head + 1) & (len(rc.msgs) - 1)
	rc.n.Add(-1)
	rc.mu.unlock()
	return msg, true
}

// recycle hands a popped payload buffer back once its bytes are copied out,
// for tpDeliver to fill again.  Only mailboxes the transport feeds recycle:
// the modeled wire allocates its own payloads and would never take them.
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

// progressRemoteRecv completes a remote receive if a message has arrived.
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
	if r.rt.tp != nil {
		rc.recycle(msg)
	}
	r.stats.BytesReceived += int64(req.n)
	if r.trace != nil {
		r.trace.Emit(obs.KRecvRemote, req.peer, int64(req.n))
	}
	if r.met != nil {
		r.met.recvsRemote.Inc()
		r.met.bytesReceived.Add(int64(req.n))
	}
	req.done = true
}
