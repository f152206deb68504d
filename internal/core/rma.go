package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/rma"
	"repro/internal/schedpoint"
)

// One-sided communication (RMA): the core-layer glue around internal/rma.
//
// Intra-node window operations are direct memory accesses: a Put is one
// bounds-checked copy into the target rank's exposed buffer — the same
// single-copy discipline as the rendezvous path — ordered by the epoch
// primitives' atomic flags.  Inter-node operations are encoded as frames
// and ride the existing mailbox transport on a reserved tag.  The target
// applies incoming frames from its own goroutine — in every runtime wait
// via the SSW loop's Progress hook, and inside the RMA wait loops
// themselves — and advances a per-flow applied watermark that doubles as
// the origin's completion signal (a shared-memory read in one process, a
// KindApplied frame across processes; see transport.go).

// rmaTag is the reserved channel-manager tag space for RMA frames; it sits
// above collTag, so it can never collide with application tags (checked
// below collTag) or with internal collective traffic (exactly collTag).
const rmaTag = collTag + 1

// rmaFlow is one origin->target remote RMA stream: the underlying mailbox
// channel plus the applied watermark.  sent is origin-owned (single
// goroutine); applied is advanced by the target as it applies frames in
// flow order, so an origin's operation is globally complete — applied to
// target memory, not merely delivered — once applied covers its sequence.
type rmaFlow struct {
	rc      *remoteChannel
	sent    uint64        // frames shipped; owned by the origin rank
	applied atomic.Uint64 // frames applied by the target (completion watermark)
}

// rmaInbox is one incoming flow a rank drains: the flow plus the frame
// dispatch coordinates the chanKey carried (communicator and origin).
type rmaInbox struct {
	flow   *rmaFlow
	comm   uint64
	origin int // global origin rank
}

// rmaFlowFor resolves (or creates) the flow for key, with a rank-local
// cache in front of the shared map, like the channel caches.
func (r *Rank) rmaFlowFor(key chanKey) *rmaFlow {
	if f, ok := r.rmaFlowCache[key]; ok {
		return f
	}
	v, _ := r.rt.rmaFlows.LoadOrStore(key, &rmaFlow{rc: r.rt.remote(key)})
	f := v.(*rmaFlow)
	if r.rmaFlowCache == nil {
		r.rmaFlowCache = make(map[chanKey]*rmaFlow)
	}
	r.rmaFlowCache[key] = f
	return f
}

// Win is one rank's handle on a window (the analogue of MPI_Win).  The
// shared state lives in the runtime's window registry; the handle holds
// this rank's epoch rounds and outstanding remote operations.
type Win struct {
	c   *Comm
	w   *rma.Window
	key rma.Key

	fenceRound    uint64
	postRound     uint64
	startRound    uint64
	completeRound uint64
	waitRound     uint64
	startTargets  []int // comm ranks of the open access epoch (Start..Complete)
	postOrigins   []int // comm ranks of the open exposure epoch (Post..Wait)
	consumed      [rma.NotifySlots]uint64
	pend          []*Request // outstanding remote operations on this window
}

// WinCreate collectively creates a window over the communicator, exposing
// buf as the calling rank's window memory (ranks may expose buffers of
// different sizes, including nil).  Windows are registered in a registry
// keyed like the channel manager — (communicator, creation sequence) — so
// every member, and the remote-frame dispatch, resolves the same shared
// state.  Collective: every member must call WinCreate in the same order.
func (c *Comm) WinCreate(buf []byte) *Win {
	r := c.r
	c.winEpoch++
	k := rma.Key{Comm: c.sh.id, Seq: c.winEpoch}
	w := r.rt.rmaReg.GetOrCreate(k, c.Size())
	w.Attach(c.myRank, buf)
	// Subscribe to RMA frames from every member on another node: the
	// origin-role kinds (put/acc/get-req/notify) and get replies all arrive
	// on the same per-origin flow.
	for _, g := range c.sh.members {
		if g == r.id || r.rt.place.SameNode(r.id, g) {
			continue
		}
		key := chanKey{src: g, dst: r.id, tag: rmaTag, comm: c.sh.id}
		if r.rmaInSet == nil {
			r.rmaInSet = make(map[chanKey]bool)
		}
		if !r.rmaInSet[key] {
			r.rmaInSet[key] = true
			r.rmaIn = append(r.rmaIn, &rmaInbox{flow: r.rmaFlowFor(key), comm: c.sh.id, origin: g})
		}
	}
	if r.rt.tp != nil && c.multiNode() {
		// Members in other OS processes never Attach into this replica, so
		// exchange buffer lengths to keep origin-side bounds checks global.
		var mine [8]byte
		binary.LittleEndian.PutUint64(mine[:], uint64(len(buf)))
		all := make([]byte, 8*c.Size())
		c.Allgather(mine[:], all)
		for cr := 0; cr < c.Size(); cr++ {
			w.SetLen(cr, int(binary.LittleEndian.Uint64(all[cr*8:])))
		}
	}
	c.Barrier() // every buffer attached and every inbox subscribed
	return &Win{c: c, w: w, key: k}
}

// Comm returns the communicator the window was created over.
func (win *Win) Comm() *Comm { return win.c }

// Size returns the window's member count.
func (win *Win) Size() int { return win.w.N() }

// Len returns the byte length of target's exposed buffer (valid for every
// member, including cross-process members whose buffer this replica cannot
// address).
func (win *Win) Len(target int) int {
	win.c.checkPeer(target, "window")
	return win.w.Len(target)
}

// Buffer returns the calling rank's own exposed buffer.
func (win *Win) Buffer() []byte { return win.w.Buffer(win.c.myRank) }

// local reports whether target (comm rank) shares this rank's node, and
// returns its global rank.
func (win *Win) local(target int) (int, bool) {
	g := win.c.sh.members[target]
	return g, g == win.c.r.id || win.c.r.rt.place.SameNode(win.c.r.id, g)
}

// addPend records an outstanding remote operation for the next closing
// synchronization, first pruning completed entries from the head (flows
// complete in order, so the head check is cheap and keeps put+notify loops
// that never fence from accumulating requests without bound).
func (win *Win) addPend(req *Request) {
	for len(win.pend) > 0 {
		h := win.pend[0]
		if !h.done && h.kind == reqRmaRemote && h.flow.applied.Load() >= h.flowSeq {
			h.done = true
		}
		if !h.done {
			break
		}
		win.pend[0] = nil
		win.pend = win.pend[1:]
	}
	if len(win.pend) == 0 {
		win.pend = nil
	}
	win.pend = append(win.pend, req)
}

// completePending blocks until every outstanding remote operation on the
// window has been applied at its target (Put/Accumulate/Notify) or
// replied to (Get).
func (win *Win) completePending() {
	for _, req := range win.pend {
		win.c.r.waitReq(req)
	}
	for i := range win.pend {
		win.pend[i] = nil
	}
	win.pend = nil
}

// rmaTransmit encodes f and ships it on the calling rank's flow toward
// dstGlobal, returning the flow and the frame's sequence in it (the
// applied watermark that signals completion).
func (r *Rank) rmaTransmit(commID uint64, dstGlobal int, f *rma.Frame) (*rmaFlow, uint64) {
	key := chanKey{src: r.id, dst: dstGlobal, tag: rmaTag, comm: commID}
	flow := r.rmaFlowFor(key)
	buf := f.Encode()
	flow.sent++
	r.count(&r.stats.RmaRemotePackets, 1)
	if r.rt.tp != nil {
		// Real transport: the encoded frame rides the link's sequenced
		// stream into the target process's mailbox; the applied watermark
		// comes back as KindApplied frames (see tpApplied).
		r.tpSendData(key, buf)
		return flow, flow.sent
	}
	r.remoteSendOwned(flow.rc, dstGlobal, buf)
	return flow, flow.sent
}

// rmaRemoteReq builds the origin-side completion request for a shipped
// frame: done once the target's applied watermark covers the sequence.
func (r *Rank) rmaRemoteReq(flow *rmaFlow, seq uint64, dstGlobal int, commID uint64) *Request {
	return &Request{kind: reqRmaRemote, flow: flow, flowSeq: seq, peer: int32(dstGlobal), tag: rmaTag, comm: commID}
}

// rmaProgress drives this rank's share of the one-sided machinery: it applies
// every arrived frame targeting this rank.  It runs only on the rank's own
// goroutine — from the SSW loop's Progress hook at yield boundaries and
// from the RMA wait conditions — so the inboxes stay single-consumer.
func (r *Rank) rmaProgress() {
	if r.inRmaProgress {
		// Reentrancy guard: applying a frame can itself block briefly (an
		// Accumulate waiting for the serialization lock), and re-entering
		// from that wait would apply later frames before earlier ones.
		return
	}
	if len(r.rmaIn) == 0 {
		return
	}
	r.inRmaProgress = true
	defer func() { r.inRmaProgress = false }()

	for _, in := range r.rmaIn {
		schedpoint.Point("core:rma:drain-inbox")
		drained := 0
		for in.flow.rc.n.Load() > 0 {
			msg, ok := in.flow.rc.tryPop()
			if !ok {
				break
			}
			r.rmaApply(in, msg)
			schedpoint.Point("core:rma:applied")
			in.flow.applied.Add(1)
			drained++
			r.slot.progress.Add(1) // frame application is forward progress
		}
		if drained > 0 && r.rt.tp != nil {
			// Across processes the origin cannot read our replica's applied
			// watermark; ship the new total back on the reverse link.
			r.tpSendApplied(in)
		}
	}
}

// rmaApply decodes and applies one arrived frame targeting this rank.
func (r *Rank) rmaApply(in *rmaInbox, buf []byte) {
	f, err := rma.DecodeFrame(buf)
	if err != nil {
		panic(fmt.Sprintf("core: rank %d: corrupt RMA frame from rank %d: %v", r.id, in.origin, err))
	}
	if f.Kind == rma.FrameGetRep {
		req := r.rmaGets[f.Aux]
		if req == nil {
			panic(fmt.Sprintf("core: rank %d: RMA get reply %d from rank %d matches no outstanding get", r.id, f.Aux, in.origin))
		}
		delete(r.rmaGets, f.Aux)
		req.n = copy(req.buf, f.Payload)
		r.count(&r.stats.BytesReceived, int64(req.n))
		req.done = true
		return
	}
	w := r.rt.rmaReg.Lookup(rma.Key{Comm: in.comm, Seq: f.WinSeq})
	if w == nil {
		panic(fmt.Sprintf("core: rank %d: RMA frame for unknown window (comm %d, seq %d)", r.id, in.comm, f.WinSeq))
	}
	switch f.Kind {
	case rma.FramePut:
		w.CopyIn(int(f.Target), int(f.Off), f.Payload)
		r.count(&r.stats.RmaPutCopies, 1)
	case rma.FrameAcc:
		op, dt := rma.UnpackAcc(f.Aux)
		w.AccumulateLocal(int(f.Target), int(f.Off), f.Payload, op, dt, func(cond func() bool) {
			for !cond() {
				r.checkPoison()
				gosched()
			}
		})
	case rma.FrameGetReq:
		data := make([]byte, f.N)
		w.CopyOut(int(f.Target), int(f.Off), data)
		rep := &rma.Frame{Kind: rma.FrameGetRep, WinSeq: f.WinSeq, Origin: f.Target, Target: f.Origin, Aux: f.Aux, Payload: data}
		r.rmaTransmit(in.comm, in.origin, rep)
	case rma.FrameNotify:
		w.Notify(int(f.Target), int(f.Aux))
	case rma.FramePost:
		// Cross-process PSCW: the sender (f.Origin) posted exposure round
		// f.Aux; mirror it into this replica's flags for local Start polls.
		w.Post(int(f.Origin), f.Aux)
	case rma.FrameComplete:
		// Cross-process PSCW: f.Origin completed access round f.Aux at
		// f.Target (a rank in this process, polling in Wait).
		w.Complete(int(f.Origin), int(f.Target), f.Aux)
	case rma.FrameShmem:
		r.shmemApply(in, w, &f)
	default:
		panic(fmt.Sprintf("core: rank %d: unexpected RMA frame kind %v", r.id, f.Kind))
	}
}

// ---- Put / Get / Accumulate ----

// Put copies data into target's window at byte offset off.  Intra-node it
// is a single direct copy into the exposed buffer (the one unavoidable
// payload copy); inter-node the operation is shipped as a frame and
// completes — applied to target memory — at the next closing
// synchronization (Fence, Complete, or a Wait on the request from Rput).
// The transfer only becomes readable by the target after a synchronization
// (fence/PSCW/notify) orders it; concurrent unordered access to the same
// window bytes is an application data race, exactly as in MPI.
func (win *Win) Put(data []byte, target, off int) {
	if req := win.Rput(data, target, off); !req.done {
		win.addPend(req)
	}
}

// Rput is the request-returning Put: complete it with Wait/Waitall, or let
// a closing synchronization on the window complete it.  Completion means
// the data has been applied to the target's window (stronger than MPI's
// local completion), so the origin may reuse data immediately after.
func (win *Win) Rput(data []byte, target, off int) *Request {
	c := win.c
	r := c.r
	c.checkPeer(target, "Put target")
	win.w.Check(target, off, len(data), "Put")
	r.count(&r.stats.RmaPuts, 1)
	r.count(&r.stats.RmaBytesPut, int64(len(data)))
	if r.trace != nil {
		r.trace.Emit(obs.KRmaPut, int32(c.sh.members[target]), int64(len(data)))
	}
	g, sameNode := win.local(target)
	if sameNode {
		win.w.CopyIn(target, off, data)
		r.count(&r.stats.RmaPutCopies, 1)
		return &Request{kind: reqRmaRemote, peer: int32(g), tag: rmaTag, comm: win.key.Comm, done: true}
	}
	f := &rma.Frame{Kind: rma.FramePut, WinSeq: win.key.Seq, Origin: uint32(c.myRank), Target: uint32(target), Off: uint64(off), Payload: data}
	flow, seq := r.rmaTransmit(win.key.Comm, g, f)
	return r.rmaRemoteReq(flow, seq, g, win.key.Comm)
}

// Get copies len(dest) bytes out of target's window at off into dest,
// blocking until dest is filled.
func (win *Win) Get(dest []byte, target, off int) {
	if req := win.Rget(dest, target, off); !req.done {
		win.c.r.waitReq(req)
	}
}

// Rget is the request-returning Get; dest is filled when the request
// completes.
func (win *Win) Rget(dest []byte, target, off int) *Request {
	c := win.c
	r := c.r
	c.checkPeer(target, "Get target")
	win.w.Check(target, off, len(dest), "Get")
	r.count(&r.stats.RmaGets, 1)
	r.count(&r.stats.RmaBytesGot, int64(len(dest)))
	if r.trace != nil {
		r.trace.Emit(obs.KRmaGet, int32(c.sh.members[target]), int64(len(dest)))
	}
	g, sameNode := win.local(target)
	if sameNode {
		win.w.CopyOut(target, off, dest)
		return &Request{kind: reqRmaGet, peer: int32(g), tag: rmaTag, comm: win.key.Comm, done: true, n: len(dest)}
	}
	if r.rmaGets == nil {
		r.rmaGets = make(map[uint64]*Request)
	}
	r.rmaGetSeq++
	req := &Request{kind: reqRmaGet, buf: dest, peer: int32(g), tag: rmaTag, comm: win.key.Comm, seq: r.rmaGetSeq}
	r.rmaGets[r.rmaGetSeq] = req
	f := &rma.Frame{Kind: rma.FrameGetReq, WinSeq: win.key.Seq, Origin: uint32(c.myRank), Target: uint32(target), Off: uint64(off), Aux: r.rmaGetSeq, N: uint64(len(dest))}
	r.rmaTransmit(win.key.Comm, g, f)
	return req
}

// Accumulate folds data into target's window at off with op over dt,
// serialized against every other Accumulate targeting the same rank
// (element-wise atomicity at window-target granularity, like
// MPI_Accumulate).  Inter-node accumulates apply at the next closing
// synchronization.
func (win *Win) Accumulate(data []byte, target, off int, op collective.Op, dt collective.DType) {
	c := win.c
	r := c.r
	c.checkPeer(target, "Accumulate target")
	win.w.Check(target, off, len(data), "Accumulate")
	r.count(&r.stats.RmaAccumulates, 1)
	r.count(&r.stats.RmaBytesPut, int64(len(data)))
	if r.trace != nil {
		r.trace.Emit(obs.KRmaAcc, int32(c.sh.members[target]), int64(len(data)))
	}
	g, sameNode := win.local(target)
	if sameNode {
		win.w.AccumulateLocal(target, off, data, op, dt, r.wait.Wait)
		return
	}
	f := &rma.Frame{Kind: rma.FrameAcc, WinSeq: win.key.Seq, Origin: uint32(c.myRank), Target: uint32(target), Off: uint64(off), Aux: rma.PackAcc(op, dt), Payload: data}
	flow, seq := r.rmaTransmit(win.key.Comm, g, f)
	win.addPend(r.rmaRemoteReq(flow, seq, g, win.key.Comm))
}

// ---- Synchronization epochs ----

// Fence closes the current access epoch and opens the next one: it first
// completes the caller's outstanding remote operations (so they are
// applied at their targets), then publishes the caller's fence flag and
// waits for every member's — sequence-numbered per-rank flags in the SPTD
// style, never reset, so a member one round ahead still satisfies earlier
// rounds.  After Fence returns, every member's puts from the previous
// epoch are visible in every window buffer.  Collective over the window.
func (win *Win) Fence() {
	r := win.c.r
	t0 := r.traceStart()
	win.completePending()
	win.fenceRound++
	if r.rt.tp != nil && win.c.multiNode() {
		// Cross-process members never store into this replica's fence flags.
		// A barrier (whose leader legs ride the transport) gives the same
		// guarantee: everyone's outstanding operations were applied (their
		// completePending ran first) before anyone proceeds.
		win.c.Barrier()
	} else {
		win.w.FenceArrive(win.c.myRank, win.fenceRound)
		if !win.w.FenceReached(win.fenceRound) {
			lw := lazyWait{r: r, rec: WaitRecord{
				Kind: WaitRmaFence, Peer: -1, Tag: rmaTag, Comm: win.key.Comm, Seq: win.fenceRound, Op: "fence",
			}}
			lw.wait(func() bool {
				if win.w.FenceReached(win.fenceRound) {
					return true
				}
				schedpoint.Point("core:rma:fence-poll")
				r.rmaProgress()
				return win.w.FenceReached(win.fenceRound)
			})
			lw.finish()
		}
	}
	r.count(&r.stats.RmaFences, 1)
	if r.trace != nil {
		r.trace.EmitSpan(obs.KRmaFence, -1, int64(win.fenceRound), t0)
	}
}

// Post opens an exposure epoch toward origins (comm ranks): the caller's
// window may now be accessed by those origins' Start..Complete epochs.
// Close it with Wait.  (PSCW target side.)
func (win *Win) Post(origins []int) {
	for _, o := range origins {
		win.c.checkPeer(o, "Post origin")
	}
	if win.postOrigins != nil {
		panic("core: Post called with an exposure epoch already open (missing Wait)")
	}
	win.postOrigins = append([]int(nil), origins...)
	win.postRound++
	win.w.Post(win.c.myRank, win.postRound)
	if r := win.c.r; r.rt.tp != nil {
		// Mirror the exposure flag into cross-process origins' replicas;
		// their Start polls locally and rmaProgress applies the frame.
		for _, o := range win.postOrigins {
			if g, same := win.local(o); !same {
				f := &rma.Frame{Kind: rma.FramePost, WinSeq: win.key.Seq,
					Origin: uint32(win.c.myRank), Target: uint32(o), Aux: win.postRound}
				flow, seq := r.rmaTransmit(win.key.Comm, g, f)
				win.addPend(r.rmaRemoteReq(flow, seq, g, win.key.Comm))
			}
		}
	}
}

// Start opens an access epoch toward targets (comm ranks), blocking until
// each has posted a matching exposure epoch.  Close it with Complete.
// Matching Post/Start (and Complete/Wait) pairs must be called the same
// number of times on both sides — epochs are matched by per-pair rounds,
// like every other flag in the runtime.  (PSCW origin side.)
func (win *Win) Start(targets []int) {
	r := win.c.r
	for _, t := range targets {
		win.c.checkPeer(t, "Start target")
	}
	if win.startTargets != nil {
		panic("core: Start called with an access epoch already open (missing Complete)")
	}
	win.startTargets = append([]int(nil), targets...)
	win.startRound++
	for _, t := range win.startTargets {
		if win.w.Posted(t, win.startRound) {
			continue
		}
		g := win.c.sh.members[t]
		r.pendRec = WaitRecord{Kind: WaitRmaPSCW, Peer: g, Tag: rmaTag, Comm: win.key.Comm, Seq: win.startRound, Op: "start"}
		idle := false
		if r.rt.tp != nil {
			if _, same := win.local(t); !same {
				idle = true // the Post flag arrives as a frame
			}
		}
		t := t
		r.leafWaitVia(idle, func() bool {
			if win.w.Posted(t, win.startRound) {
				return true
			}
			r.rmaProgress()
			return win.w.Posted(t, win.startRound)
		})
	}
}

// Complete closes the caller's access epoch: outstanding remote operations
// are completed, then the completion flag is published toward every epoch
// target, releasing their Wait.
func (win *Win) Complete() {
	if win.startTargets == nil {
		panic("core: Complete without a matching Start")
	}
	win.completePending()
	win.completeRound++
	r := win.c.r
	for _, t := range win.startTargets {
		win.w.Complete(win.c.myRank, t, win.completeRound)
		if r.rt.tp != nil {
			if g, same := win.local(t); !same {
				// Mirror the completion flag into the cross-process target's
				// replica.  The frame follows this epoch's operation frames
				// on the same flow, and completePending already confirmed
				// they were applied, so the target's Wait release orders
				// correctly after the data.
				f := &rma.Frame{Kind: rma.FrameComplete, WinSeq: win.key.Seq,
					Origin: uint32(win.c.myRank), Target: uint32(t), Aux: win.completeRound}
				flow, seq := r.rmaTransmit(win.key.Comm, g, f)
				win.addPend(r.rmaRemoteReq(flow, seq, g, win.key.Comm))
			}
		}
	}
	win.startTargets = nil
}

// Wait closes the caller's exposure epoch, blocking until every origin
// named in Post has called Complete.  After Wait returns, those origins'
// operations are visible in the caller's window buffer.
func (win *Win) Wait() {
	if win.postOrigins == nil {
		panic("core: Wait without a matching Post")
	}
	r := win.c.r
	win.waitRound++
	for _, o := range win.postOrigins {
		if win.w.Completed(o, win.c.myRank, win.waitRound) {
			continue
		}
		g := win.c.sh.members[o]
		r.pendRec = WaitRecord{Kind: WaitRmaPSCW, Peer: g, Tag: rmaTag, Comm: win.key.Comm, Seq: win.waitRound, Op: "wait"}
		idle := false
		if r.rt.tp != nil {
			if _, same := win.local(o); !same {
				idle = true // the Complete flag arrives as a frame
			}
		}
		o := o
		r.leafWaitVia(idle, func() bool {
			if win.w.Completed(o, win.c.myRank, win.waitRound) {
				return true
			}
			r.rmaProgress()
			return win.w.Completed(o, win.c.myRank, win.waitRound)
		})
	}
	win.postOrigins = nil
}

// Notify increments target's notification counter for slot, ordered after
// the caller's earlier operations toward that target (program order
// intra-node; flow order inter-node), so a consumer that observes the
// count also observes the data the producer put before notifying.
func (win *Win) Notify(target, slot int) {
	c := win.c
	r := c.r
	c.checkPeer(target, "Notify target")
	r.count(&r.stats.RmaNotifies, 1)
	g, sameNode := win.local(target)
	if sameNode {
		win.w.Notify(target, slot)
		return
	}
	f := &rma.Frame{Kind: rma.FrameNotify, WinSeq: win.key.Seq, Origin: uint32(c.myRank), Target: uint32(target), Aux: uint64(slot)}
	flow, seq := r.rmaTransmit(win.key.Comm, g, f)
	win.addPend(r.rmaRemoteReq(flow, seq, g, win.key.Comm))
}

// NotifyWait blocks until the caller's notification counter for slot has
// grown by count beyond what previous NotifyWait calls consumed.
func (win *Win) NotifyWait(slot, count int) {
	r := win.c.r
	if slot < 0 || slot >= rma.NotifySlots {
		panic(fmt.Sprintf("core: notify slot %d out of range [0,%d)", slot, rma.NotifySlots))
	}
	win.consumed[slot] += uint64(count)
	need := win.consumed[slot]
	me := win.c.myRank
	if win.w.NotifyCount(me, slot) >= need {
		return
	}
	lw := lazyWait{r: r, rec: WaitRecord{
		Kind: WaitRmaNotify, Peer: -1, Tag: rmaTag, Comm: win.key.Comm, Seq: need, Op: "notify-wait",
	}, idle: r.rt.tp != nil && win.c.multiNode()}
	lw.wait(func() bool {
		if win.w.NotifyCount(me, slot) >= need {
			return true
		}
		schedpoint.Point("core:rma:notify-poll")
		r.rmaProgress()
		return win.w.NotifyCount(me, slot) >= need
	})
	lw.finish()
}

// Free collectively releases the window: outstanding operations are
// completed, members synchronize, and the registry entry is dropped
// (window sequence numbers are never reused, so a freed key cannot alias
// a later window).
func (win *Win) Free() {
	win.completePending()
	win.c.Barrier()
	win.c.r.rt.rmaReg.Free(win.key)
}
