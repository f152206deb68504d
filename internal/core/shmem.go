package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rma"
	"repro/internal/schedpoint"
	"repro/internal/shmem"
)

// The PGAS layer (shmem): the core-layer glue around internal/shmem.
//
// A symmetric heap is an RMA window whose per-rank buffers are identically
// sized, 8-aligned regions, plus a deterministic allocator every member
// mirrors so the k-th Malloc returns the same offset on every rank (see
// internal/shmem's package comment for why that needs no communication).
// Addressed operations name (target rank, heap offset) instead of a
// message: intra-node they resolve to direct loads, stores and hardware
// atomics on the target's exposed buffer — no allocation, no request
// object, no frame — while inter-node they ship as one shmem.Op nested in
// an rma.FrameShmem and apply on the target's goroutine through the same
// shmem atomics, so local and remote updates to one cell compose.
// Completion reuses the window machinery wholesale: fire-and-forget ops
// join the window's pending set (Quiet = completePending), and fetching
// ops ride the existing get-reply path.
//
// Mailboxes put an actor-style face on the heap: a bounded MPSC ring in
// the owner's region (internal/shmem's model-checked step protocol) plus a
// window notify counter as the wake hint.  Intra-node senders run the ring
// steps directly on the owner's buffer; inter-node senders run the same
// steps as addressed operations, whose per-flow FIFO application gives the
// publish step its ordering for free.

// Shm is one rank's handle on a symmetric heap (the analogue of an
// OpenSHMEM PE's view of the symmetric heap).  The shared consensus state
// lives in the runtime's heap registry; the handle owns this rank's
// allocator mirror and mailbox bookkeeping.
type Shm struct {
	win     *Win
	h       *shmem.Heap
	alloc   shmem.LocalAlloc
	seq     int    // Malloc calls on this handle (allocation table index)
	mboxSeq int    // NewMailbox calls (notify-slot assignment)
	buf     []byte // this rank's own symmetric region
}

// ShmemCreate collectively creates a symmetric heap of size bytes (rounded
// up to whole cells) over the communicator.  Every member must call it in
// the same order with the same size — the window-registry discipline.
// maxAllocs bounds lifetime Malloc calls (0 = shmem.DefaultMaxAllocs).
func (c *Comm) ShmemCreate(size int64, maxAllocs int) *Shm {
	size = shmem.Align8(size)
	if size <= 0 || size > shmem.MaxHeapBytes {
		panic(fmt.Sprintf("core: symmetric heap size %d out of range (0, %d]", size, shmem.MaxHeapBytes))
	}
	buf := shmem.AlignedBytes(int(size))
	win := c.WinCreate(buf)
	h := c.r.rt.shmReg.GetOrCreate(shmem.Key(win.key), size, maxAllocs)
	if h.Size() != size {
		panic(fmt.Sprintf("core: rank %d called ShmemCreate with size %d but a peer created the heap with size %d", c.r.id, size, h.Size()))
	}
	return &Shm{win: win, h: h, buf: buf}
}

// Comm returns the communicator the heap was created over.
func (s *Shm) Comm() *Comm { return s.win.c }

// Win returns the backing window (for Notify/NotifyWait interop).
func (s *Shm) Win() *Win { return s.win }

// Local returns the calling rank's own symmetric region.
func (s *Shm) Local() []byte { return s.buf }

// Size returns the symmetric region size in bytes.
func (s *Shm) Size() int64 { return s.h.Size() }

// Malloc returns the offset of a fresh n-byte symmetric allocation
// (rounded up to whole cells).  Symmetric discipline: every member calls
// Malloc/Free in the same order, so every member computes — and the shared
// table confirms — the same offset.  Unlike shmem_malloc there is no
// implied barrier: the regions already exist, so a rank may Put to a
// peer's fresh allocation before the peer has reached its matching Malloc.
func (s *Shm) Malloc(n int64) int64 {
	size := shmem.Align8(n)
	if size <= 0 {
		panic(fmt.Sprintf("core: shmem Malloc of %d bytes", n))
	}
	off, err := s.alloc.Alloc(s.seq, size, s.h.Size())
	if err != nil {
		panic(err.Error())
	}
	off = s.h.Publish(s.seq, off, size)
	s.seq++
	return off
}

// Free releases the symmetric allocation at off (same call-ordering
// obligation as Malloc).
func (s *Shm) Free(off int64) {
	seq, _, err := s.alloc.Release(off)
	if err != nil {
		panic(err.Error())
	}
	s.h.PublishFree(seq)
}

// shipPend encodes op, ships it toward comm rank target on this rank's
// flow, and joins the window's pending set (completed by Quiet/Barrier).
func (s *Shm) shipPend(g, target int, op *shmem.Op) {
	r := s.win.c.r
	f := &rma.Frame{Kind: rma.FrameShmem, WinSeq: s.win.key.Seq,
		Origin: uint32(s.win.c.myRank), Target: uint32(target), Payload: op.Encode(nil)}
	flow, seq := r.rmaTransmit(s.win.key.Comm, g, f)
	s.win.addPend(r.rmaRemoteReq(flow, seq, g, s.win.key.Comm))
}

// shipFetch ships a fetching op (get/fetch-add/cas) and returns the
// request its reply completes; dest receives the reply payload.
func (s *Shm) shipFetch(g, target int, op *shmem.Op, dest []byte) *Request {
	r := s.win.c.r
	if r.rmaGets == nil {
		r.rmaGets = make(map[uint64]*Request)
	}
	r.rmaGetSeq++
	op.Req = r.rmaGetSeq
	req := &Request{kind: reqRmaGet, buf: dest, peer: int32(g), tag: rmaTag, comm: s.win.key.Comm, seq: r.rmaGetSeq}
	r.rmaGets[r.rmaGetSeq] = req
	f := &rma.Frame{Kind: rma.FrameShmem, WinSeq: s.win.key.Seq,
		Origin: uint32(s.win.c.myRank), Target: uint32(target), Payload: op.Encode(nil)}
	r.rmaTransmit(s.win.key.Comm, g, f)
	return req
}

// Put copies data into target's symmetric region at off.  Intra-node it is
// one direct copy (zero allocations); inter-node it is fire-and-forget,
// applied to target memory by the next Quiet/Barrier.  Like rma Put,
// unordered concurrent access to the same bytes is an application race —
// use the atomic cells for concurrently updated words.
func (s *Shm) Put(target int, off int64, data []byte) {
	c := s.win.c
	r := c.r
	c.checkPeer(target, "shmem Put target")
	s.win.w.Check(target, int(off), len(data), "shmem Put")
	r.count(&r.stats.ShmemPuts, 1)
	g, same := s.win.local(target)
	if same {
		s.win.w.CopyIn(target, int(off), data)
		return
	}
	s.shipPend(g, target, &shmem.Op{Kind: shmem.OpPut, Off: off, Data: data})
}

// Get copies len(dest) bytes from target's symmetric region at off,
// blocking until dest is filled.  Not atomic with respect to concurrent
// cell updates — use AtomicLoad for single hot cells.
func (s *Shm) Get(target int, off int64, dest []byte) {
	c := s.win.c
	r := c.r
	c.checkPeer(target, "shmem Get target")
	s.win.w.Check(target, int(off), len(dest), "shmem Get")
	r.count(&r.stats.ShmemGets, 1)
	g, same := s.win.local(target)
	if same {
		s.win.w.CopyOut(target, int(off), dest)
		return
	}
	req := s.shipFetch(g, target, &shmem.Op{Kind: shmem.OpGet, Off: off, Val: int64(len(dest))}, dest)
	r.waitReq(req)
}

// AtomicAdd folds delta into the cell at (target, off).  Intra-node it is
// one hardware atomic on the shared window (zero allocations); inter-node
// it is fire-and-forget and applies through the same hardware atomic on
// the target, so adds from every origin compose without lost updates.
func (s *Shm) AtomicAdd(target int, off, delta int64) {
	c := s.win.c
	r := c.r
	c.checkPeer(target, "shmem AtomicAdd target")
	r.count(&r.stats.ShmemAtomics, 1)
	g, same := s.win.local(target)
	if same {
		shmem.AtomicAdd(s.win.w.Buffer(target), int(off), delta)
		return
	}
	s.shipPend(g, target, &shmem.Op{Kind: shmem.OpAdd, Off: off, Val: delta})
}

// AtomicFetchAdd folds delta into the cell at (target, off) and returns
// the value the cell held immediately before, blocking for the reply on
// the inter-node path.
func (s *Shm) AtomicFetchAdd(target int, off, delta int64) int64 {
	c := s.win.c
	r := c.r
	c.checkPeer(target, "shmem AtomicFetchAdd target")
	r.count(&r.stats.ShmemAtomics, 1)
	g, same := s.win.local(target)
	if same {
		return shmem.AtomicFetchAdd(s.win.w.Buffer(target), int(off), delta)
	}
	dest := make([]byte, shmem.CellBytes)
	req := s.shipFetch(g, target, &shmem.Op{Kind: shmem.OpFetchAdd, Off: off, Val: delta}, dest)
	r.waitReq(req)
	return int64(binary.LittleEndian.Uint64(dest))
}

// AtomicCAS compares-and-swaps the cell at (target, off): if it holds old,
// it becomes new.  Returns the value the cell held immediately before the
// attempt (the swap happened iff the return equals old).
func (s *Shm) AtomicCAS(target int, off, old, new int64) int64 {
	c := s.win.c
	r := c.r
	c.checkPeer(target, "shmem AtomicCAS target")
	r.count(&r.stats.ShmemAtomics, 1)
	g, same := s.win.local(target)
	if same {
		return shmem.AtomicCAS(s.win.w.Buffer(target), int(off), old, new)
	}
	dest := make([]byte, shmem.CellBytes)
	req := s.shipFetch(g, target, &shmem.Op{Kind: shmem.OpCAS, Off: off, Val: new, Cmp: old}, dest)
	r.waitReq(req)
	return int64(binary.LittleEndian.Uint64(dest))
}

// AtomicStore publishes v into the cell at (target, off); fire-and-forget
// inter-node, completed by the next Quiet/Barrier.
func (s *Shm) AtomicStore(target int, off, v int64) {
	c := s.win.c
	r := c.r
	c.checkPeer(target, "shmem AtomicStore target")
	r.count(&r.stats.ShmemAtomics, 1)
	g, same := s.win.local(target)
	if same {
		shmem.AtomicStore(s.win.w.Buffer(target), int(off), v)
		return
	}
	s.shipPend(g, target, &shmem.Op{Kind: shmem.OpStore, Off: off, Val: v})
}

// AtomicLoad returns the cell at (target, off).  The inter-node path is a
// fetch-add of zero, so the read is serialized with every other cell
// operation (a plain remote Get of a hot cell would race the target's
// atomics).
func (s *Shm) AtomicLoad(target int, off int64) int64 {
	c := s.win.c
	c.checkPeer(target, "shmem AtomicLoad target")
	if _, same := s.win.local(target); same {
		c.r.count(&c.r.stats.ShmemAtomics, 1)
		return shmem.AtomicLoad(s.win.w.Buffer(target), int(off))
	}
	return s.AtomicFetchAdd(target, off, 0)
}

// Quiet blocks until every outstanding fire-and-forget operation this rank
// issued has been applied at its target (OpenSHMEM shmem_quiet, with the
// runtime's stronger applied-not-just-delivered completion).
func (s *Shm) Quiet() { s.win.completePending() }

// Fence orders this rank's operations toward each target: operations
// issued before the fence apply before operations issued after it.  In
// this runtime that ordering is structural — intra-node ops complete
// immediately in program order, and inter-node ops toward one target ride
// one FIFO flow applied in order — so Fence compiles to nothing; it exists
// so shmem-style programs state their ordering intent portably.
func (s *Shm) Fence() {}

// Barrier is Quiet plus a communicator barrier: on return, every member's
// prior operations are applied everywhere (shmem_barrier_all).
func (s *Shm) Barrier() {
	s.Quiet()
	s.win.c.Barrier()
}

// FreeHeap collectively releases the heap and its backing window.
func (s *Shm) FreeHeap() {
	s.win.Free()
	s.win.c.r.rt.shmReg.Free(shmem.Key(s.win.key))
}

// shmemApply executes one arrived shmem op against this replica (called
// from rmaApply on the target rank's own goroutine).  Atomic kinds go
// through the same hardware atomics as the intra-node fast path; fetching
// kinds reply on the existing get-reply path with the op's request id.
func (r *Rank) shmemApply(in *rmaInbox, w *rma.Window, f *rma.Frame) {
	op, err := shmem.DecodeOp(f.Payload)
	if err != nil {
		panic(fmt.Sprintf("core: rank %d: corrupt shmem op from rank %d: %v", r.id, in.origin, err))
	}
	target := int(f.Target)
	if op.Kind == shmem.OpGet {
		w.Check(target, int(op.Off), int(op.Val), "shmem Get")
		data := make([]byte, op.Val)
		w.CopyOut(target, int(op.Off), data)
		rep := &rma.Frame{Kind: rma.FrameGetRep, WinSeq: f.WinSeq, Origin: f.Target, Target: f.Origin, Aux: op.Req, Payload: data}
		r.rmaTransmit(in.comm, in.origin, rep)
		return
	}
	old, wantRep := op.Apply(w.Buffer(target))
	if wantRep {
		rep := &rma.Frame{Kind: rma.FrameGetRep, WinSeq: f.WinSeq, Origin: f.Target, Target: f.Origin, Aux: op.Req, Payload: binary.LittleEndian.AppendUint64(nil, uint64(old))}
		r.rmaTransmit(in.comm, in.origin, rep)
	}
}

// ---- Mailboxes ----

// Mailbox is an actor-style message queue owned by one rank: a bounded
// MPSC ring in the owner's symmetric region (see internal/shmem/ring.go
// for the slot-stamp protocol) plus a window notify counter as the wake
// hint.  Any member may Send; only the owner may Poll/Recv.  Messages from
// one sender arrive in the order sent (ring tickets are claimed in send
// order); messages from different senders interleave arbitrarily.
type Mailbox struct {
	s     *Shm
	owner int // comm rank that consumes
	ring  shmem.Ring
	head  int64 // consumer cursor (owner-private, unshared by design)
	slot  int   // notify slot (wake hint; the slot stamp is authoritative)
}

// NewMailbox collectively creates a mailbox owned by comm rank owner, with
// capacity cap messages of at most slotBytes bytes (a positive multiple of
// 8).  Every member calls it in the same order (it allocates from the
// symmetric heap); the returned handle is a sender handle everywhere and
// the consumer handle on the owner.
func (s *Shm) NewMailbox(owner, cap, slotBytes int) *Mailbox {
	c := s.win.c
	c.checkPeer(owner, "mailbox owner")
	if cap < 2 || slotBytes < shmem.CellBytes || slotBytes%shmem.CellBytes != 0 {
		// cap >= 2 because the ring's publish and recycle stamps collide at
		// cap 1 (see shmem.InitRing).
		panic(fmt.Sprintf("core: mailbox needs cap >= 2 and a positive multiple-of-8 slot size, got cap %d slot %d", cap, slotBytes))
	}
	base := s.Malloc(shmem.RingBytes(cap, slotBytes))
	m := &Mailbox{s: s, owner: owner, ring: shmem.Ring{Base: base, Cap: cap, Slot: slotBytes},
		slot: s.mboxSeq % rma.NotifySlots}
	s.mboxSeq++
	if c.myRank == owner {
		shmem.InitRing(s.buf, m.ring)
	}
	s.Barrier() // the ring is initialized before any sender can claim
	return m
}

// Owner returns the consuming comm rank.
func (m *Mailbox) Owner() int { return m.owner }

// Cap returns the ring capacity in messages.
func (m *Mailbox) Cap() int { return m.ring.Cap }

// SlotBytes returns the per-message payload capacity.
func (m *Mailbox) SlotBytes() int { return m.ring.Slot }

// Notifications returns the mailbox's cumulative notify-counter value
// (the wake hint; it can trail the stamps, which are authoritative).
func (m *Mailbox) Notifications() uint64 {
	return m.s.win.w.NotifyCount(m.owner, m.slot)
}

// TrySend attempts to deliver msg without blocking; false means the ring
// was full.  Intra-node senders run the model-checked ring steps directly
// on the owner's buffer; inter-node senders run the same steps as
// addressed operations — the claim is a blocking remote CAS, and the
// fill/publish/notify frames ride one FIFO flow, so the owner observes the
// published stamp only after the payload landed.
func (m *Mailbox) TrySend(msg []byte) bool {
	if len(msg) > m.ring.Slot {
		panic(fmt.Sprintf("core: mailbox message of %d bytes exceeds the %d-byte slot", len(msg), m.ring.Slot))
	}
	s := m.s
	r := s.win.c.r
	rg := m.ring
	if _, same := s.win.local(m.owner); same {
		buf := s.win.w.Buffer(m.owner)
		t, ok := shmem.SendClaim(buf, rg)
		if !ok {
			return false
		}
		shmem.SendFill(buf, rg, t, msg)
		shmem.SendPublish(buf, rg, t)
		s.win.w.Notify(m.owner, m.slot)
		r.count(&r.stats.ShmemSends, 1)
		return true
	}
	for {
		t := s.AtomicLoad(m.owner, rg.TailOff())
		st := s.AtomicLoad(m.owner, rg.StampOff(rg.SlotOf(t)))
		if st < t {
			return false // slot not recycled: ring full
		}
		if st > t {
			continue // stale tail; reload
		}
		if s.AtomicCAS(m.owner, rg.TailOff(), t, t+1) != t {
			continue // lost the ticket race
		}
		i := rg.SlotOf(t)
		s.Put(m.owner, rg.PayloadOff(i), msg)
		s.AtomicStore(m.owner, rg.LenOff(i), int64(len(msg)))
		s.AtomicStore(m.owner, rg.StampOff(i), t+1)
		s.win.Notify(m.owner, m.slot)
		r.count(&r.stats.ShmemSends, 1)
		return true
	}
}

// Send delivers msg, blocking while the ring is full (backpressure from a
// slow consumer).  The wait steals work like every runtime wait.
func (m *Mailbox) Send(msg []byte) {
	if m.TrySend(msg) {
		return
	}
	r := m.s.win.c.r
	g := m.s.win.c.sh.members[m.owner]
	r.pendRec = WaitRecord{Kind: WaitShmem, Peer: g, Tag: rmaTag, Comm: m.s.win.key.Comm, Op: "mailbox-send"}
	r.leafWaitVia(false, func() bool {
		r.rmaProgress()
		return m.TrySend(msg)
	})
}

// checkOwner guards the consumer-only entry points.
func (m *Mailbox) checkOwner(what string) {
	if m.s.win.c.myRank != m.owner {
		panic(fmt.Sprintf("core: rank %d called mailbox %s but rank %d owns the mailbox", m.s.win.c.myRank, what, m.owner))
	}
}

// ready reports whether the message at the consumer cursor is published.
func (m *Mailbox) ready() bool {
	return shmem.PollStamp(m.s.buf, m.ring, m.head)
}

// Poll attempts to consume one message into dst (which must hold SlotBytes
// bytes) without blocking, returning its length and true, or (0, false)
// when the mailbox is empty.  Owner only.
func (m *Mailbox) Poll(dst []byte) (int, bool) {
	m.checkOwner("Poll")
	r := m.s.win.c.r
	r.rmaProgress() // apply senders' frames before declaring empty
	if !m.ready() {
		return 0, false
	}
	return m.consume(dst), true
}

func (m *Mailbox) consume(dst []byte) int {
	if len(dst) < m.ring.Slot {
		panic(fmt.Sprintf("core: mailbox Poll/Recv dst of %d bytes is smaller than the %d-byte slot", len(dst), m.ring.Slot))
	}
	n := shmem.Consume(m.s.buf, m.ring, m.head, dst)
	m.head++
	r := m.s.win.c.r
	r.count(&r.stats.ShmemRecvs, 1)
	return n
}

// Recv consumes one message into dst, blocking until one is published.
// Owner only; the wait goes through the SSW loop (stealing locally, parked
// for the netpoller when the senders are in other processes).
func (m *Mailbox) Recv(dst []byte) int {
	m.checkOwner("Recv")
	r := m.s.win.c.r
	if r.rmaProgress(); m.ready() {
		return m.consume(dst)
	}
	lw := lazyWait{r: r, rec: WaitRecord{
		Kind: WaitShmem, Peer: -1, Tag: rmaTag, Comm: m.s.win.key.Comm, Seq: uint64(m.head) + 1, Op: "mailbox-recv",
	}, idle: r.rt.tp != nil && m.s.win.c.multiNode()}
	lw.wait(func() bool {
		if m.ready() {
			return true
		}
		schedpoint.Point("core:shmem:recv-poll")
		r.rmaProgress()
		return m.ready()
	})
	lw.finish()
	return m.consume(dst)
}

// Select blocks until at least one of the caller-owned mailboxes has a
// published message and returns its index (the selector pattern from the
// actor-PGAS line of work).  It does not consume — follow with Poll/Recv
// on the returned mailbox.  When several are ready, the lowest index wins.
func (s *Shm) Select(mboxes ...*Mailbox) int {
	if len(mboxes) == 0 {
		panic("core: shmem Select over no mailboxes")
	}
	for _, m := range mboxes {
		m.checkOwner("Select")
	}
	r := s.win.c.r
	pick := -1
	scan := func() bool {
		for i, m := range mboxes {
			if m.ready() {
				pick = i
				return true
			}
		}
		return false
	}
	if r.rmaProgress(); scan() {
		return pick
	}
	lw := lazyWait{r: r, rec: WaitRecord{
		Kind: WaitShmem, Peer: -1, Tag: rmaTag, Comm: s.win.key.Comm, Op: "mailbox-select",
	}, idle: r.rt.tp != nil && s.win.c.multiNode()}
	lw.wait(func() bool {
		if scan() {
			return true
		}
		schedpoint.Point("core:shmem:select-poll")
		r.rmaProgress()
		return scan()
	})
	lw.finish()
	return pick
}
