//go:build purecheck

// Model tests for the PGAS (shmem) protocols: the symmetric-heap publish
// table, the cell atomics remote operations resolve to, the mailbox ring's
// sender/consumer step machine, and the heap/window registries' racing
// first-use creation.  Each protocol is driven directly through its
// schedpoint seams, with no runtime underneath — exactly the configuration
// the package docs promise is model-checkable.
package check

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/rma"
	"repro/internal/shmem"
)

// ---- Symmetric-heap publish convergence ----

// heapPublishRaceThreads: two ranks race to publish the same Malloc (their
// deterministic allocator mirrors computed the same extent, as the
// symmetric contract requires), then race to free it.  Every interleaving
// must converge on one canonical offset — the CAS admits exactly one value
// per slot — and the free bit must be set exactly once.
func heapPublishRaceThreads() Threads {
	h := shmem.NewHeap(1024, 8)
	var offs [2]int64
	rank := func(i int) func() {
		return func() {
			offs[i] = h.Publish(0, 64, 32)
			h.PublishFree(0)
		}
	}
	return Threads{
		Names: []string{"rank0", "rank1"},
		Fns:   []func(){rank(0), rank(1)},
		Final: func() error {
			if offs[0] != 64 || offs[1] != 64 {
				return fmt.Errorf("publish race split the allocation: rank0 got %d, rank1 got %d, want 64", offs[0], offs[1])
			}
			off, size, live, ok := h.Extent(0)
			if !ok || off != 64 || size != 32 {
				return fmt.Errorf("published extent is (%d,%d,ok=%v), want (64,32)", off, size, ok)
			}
			if live {
				return fmt.Errorf("racing frees lost: allocation 0 still live")
			}
			return nil
		},
	}
}

// TestCheckShmemHeapPublishRace: under PCT schedules, racing Malloc
// publishes always converge to one offset and racing frees always land.
func TestCheckShmemHeapPublishRace(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, heapPublishRaceThreads)
	if rep.Failed {
		t.Fatalf("heap publish race: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckShmemHeapPublishExhaustive explores EVERY schedule of the
// two-rank publish+free race (no waits, so all conditions are trivially
// pure).
func TestCheckShmemHeapPublishExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, heapPublishRaceThreads)
	if rep.Failed {
		t.Fatalf("heap publish race (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// ---- Atomic cell updates never lose increments ----

// atomicAddThreads: adders fold increments into one shared cell while a
// CAS-loop thread folds its own — the composition the package doc claims
// (every cell operation goes through the same hardware atomic, so updates
// from any path are never lost).  perThread increments of (tid+1) each.
func atomicAddThreads(adders, perThread int) Threads {
	buf := shmem.AlignedBytes(shmem.CellBytes)
	fns := make([]func(), adders+1)
	for tid := 0; tid < adders; tid++ {
		tid := tid
		fns[tid] = func() {
			for i := 0; i < perThread; i++ {
				shmem.AtomicAdd(buf, 0, int64(tid+1))
			}
		}
	}
	// The last thread increments through the CAS contract instead (the
	// path a remote AtomicCAS lands on): retry until the swap succeeds.
	casDelta := int64(adders + 1)
	fns[adders] = func() {
		for i := 0; i < perThread; i++ {
			for {
				old := shmem.AtomicLoad(buf, 0)
				if shmem.AtomicCAS(buf, 0, old, old+casDelta) == old {
					break
				}
			}
		}
	}
	return Threads{Fns: fns, Final: func() error {
		var want int64
		for tid := 0; tid <= adders; tid++ {
			want += int64(perThread) * int64(tid+1)
		}
		if got := shmem.AtomicLoad(buf, 0); got != want {
			return fmt.Errorf("lost update: cell holds %d want %d", got, want)
		}
		return nil
	}}
}

// TestCheckShmemAtomicAddNoLostUpdates: three mixed add/CAS threads under
// PCT schedules; the cell must end at the exact sum.
func TestCheckShmemAtomicAddNoLostUpdates(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return atomicAddThreads(2, 3)
	})
	if rep.Failed {
		t.Fatalf("atomic add: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckShmemAtomicAddExhaustive explores every schedule of one adder
// racing one CAS-loop thread (small enough to enumerate; the CAS retry
// loop is lock-free, so every schedule terminates).
func TestCheckShmemAtomicAddExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads { return atomicAddThreads(1, 2) })
	if rep.Failed {
		t.Fatalf("atomic add (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// ---- Mailbox ring: per-sender FIFO, exactly-once, backpressure ----

// mailboxMsg encodes (sender, seq) into one 8-byte ring payload.
func mailboxMsg(sender, seq int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(sender)<<32|uint64(seq))
	return b
}

// mailboxThreads: senders push perSender tagged messages each through the
// Vyukov ring steps (claim/fill/publish) while the owner consumes them all
// (poll/consume/recycle).  cap below the total forces the full-ring path:
// a blocked sender waits for the consumer's recycle store.  The invariant
// is the mailbox contract: every message arrives exactly once, and each
// sender's messages arrive in the order it sent them (per-sender FIFO) —
// a stamp bug (wrong recycle value, lost publish) shows up as a dropped,
// duplicated, or reordered message.
func mailboxThreads(senders, perSender, cap int) Threads {
	ring := shmem.Ring{Base: 0, Cap: cap, Slot: 8}
	region := shmem.AlignedBytes(int(ring.Bytes()))
	shmem.InitRing(region, ring)
	total := senders * perSender
	got := make([]uint64, 0, total)
	fns := make([]func(), senders+1)
	for s := 0; s < senders; s++ {
		s := s
		fns[s] = func() {
			for i := 0; i < perSender; i++ {
				msg := mailboxMsg(s, i)
				for !shmem.Send(region, ring, msg) {
					// Ring full: park until the slot the next ticket maps to
					// has been recycled (a pure load, so exhaustive-safe).
					WaitLabeled("send-full", func() bool {
						tl := shmem.AtomicLoad(region, int(ring.TailOff()))
						return shmem.AtomicLoad(region, int(ring.StampOff(ring.SlotOf(tl)))) == tl
					})
				}
			}
		}
	}
	fns[senders] = func() {
		dst := make([]byte, ring.Slot)
		for h := int64(0); h < int64(total); h++ {
			h := h
			WaitLabeled("recv-wait", func() bool { return shmem.PollStamp(region, ring, h) })
			n := shmem.Consume(region, ring, h, dst)
			if n != 8 {
				got = append(got, ^uint64(0)) // impossible tag; fails Final
				continue
			}
			got = append(got, binary.LittleEndian.Uint64(dst))
		}
	}
	names := make([]string, senders+1)
	for s := 0; s < senders; s++ {
		names[s] = fmt.Sprintf("sender%d", s)
	}
	names[senders] = "owner"
	return Threads{
		Names: names,
		Fns:   fns,
		Final: func() error {
			if len(got) != total {
				return fmt.Errorf("consumed %d messages, want %d", len(got), total)
			}
			next := make([]int, senders)
			for i, tag := range got {
				s, seq := int(tag>>32), int(tag&0xffffffff)
				if s < 0 || s >= senders {
					return fmt.Errorf("message %d carries corrupt tag %#x", i, tag)
				}
				if seq != next[s] {
					return fmt.Errorf("sender %d FIFO broken: received seq %d, want %d (order %v)", s, seq, next[s], got)
				}
				next[s]++
			}
			for s, n := range next {
				if n != perSender {
					return fmt.Errorf("sender %d: %d of %d messages arrived", s, n, perSender)
				}
			}
			return nil
		},
	}
}

// TestCheckShmemMailboxFIFO: two senders and the owner over a ring smaller
// than the message count, under PCT schedules — per-sender FIFO and
// exactly-once delivery hold through the full-ring/recycle path.
func TestCheckShmemMailboxFIFO(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return mailboxThreads(2, 3, 2)
	})
	if rep.Failed {
		t.Fatalf("mailbox FIFO: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// mailboxRecycleThreads isolates the ring's hardest handoff for exhaustive
// enumeration: the workload starts from a FULL capacity-2 ring (pre-filled
// during setup, outside the scheduler, so the interesting race is the
// whole schedule space), with a sender blocked on message 2 and the owner
// consuming message 0.  Every interleaving must route the sender through
// full-detection, the consumer's recycle store, and a generation-wrapped
// claim of slot 0 — the exact stamp arithmetic that makes cap=1 unsound
// (see InitRing).  Final drains the ring and checks FIFO + exactly-once.
func mailboxRecycleThreads() Threads {
	ring := shmem.Ring{Base: 0, Cap: 2, Slot: 8}
	region := shmem.AlignedBytes(int(ring.Bytes()))
	shmem.InitRing(region, ring)
	for i := 0; i < 2; i++ { // fill to capacity before the race starts
		if !shmem.Send(region, ring, mailboxMsg(0, i)) {
			panic("pre-fill send failed on a fresh ring")
		}
	}
	var got []uint64
	return Threads{
		Names: []string{"sender", "owner"},
		Fns: []func(){
			func() {
				msg := mailboxMsg(0, 2)
				for !shmem.Send(region, ring, msg) {
					WaitLabeled("send-full", func() bool {
						tl := shmem.AtomicLoad(region, int(ring.TailOff()))
						return shmem.AtomicLoad(region, int(ring.StampOff(ring.SlotOf(tl)))) == tl
					})
				}
			},
			func() {
				dst := make([]byte, ring.Slot)
				WaitLabeled("recv-wait", func() bool { return shmem.PollStamp(region, ring, 0) })
				if n := shmem.Consume(region, ring, 0, dst); n == 8 {
					got = append(got, binary.LittleEndian.Uint64(dst))
				}
			},
		},
		Final: func() error {
			// Drain the two remaining messages on the scheduler goroutine
			// (the threads are done, so the ring is quiescent).
			dst := make([]byte, ring.Slot)
			for h := int64(1); h <= 2; h++ {
				n, ok := shmem.Poll(region, ring, h, dst)
				if !ok || n != 8 {
					return fmt.Errorf("message at cursor %d missing after the recycle handoff", h)
				}
				got = append(got, binary.LittleEndian.Uint64(dst))
			}
			for i, tag := range got {
				if want := uint64(i); tag != want {
					return fmt.Errorf("FIFO broken across the recycle: slot %d holds seq %d, want %d (order %v)", i, tag&0xffffffff, i, got)
				}
			}
			return nil
		},
	}
}

// TestCheckShmemMailboxExhaustive explores every schedule of the full-ring
// recycle handoff (sender blocked on a full ring, consumer freeing a slot,
// generation-wrapped reclaim).
func TestCheckShmemMailboxExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, mailboxRecycleThreads)
	if rep.Failed {
		t.Fatalf("mailbox (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// ---- Registry first-use races ----

// shmemRegistryRaceThreads: two member ranks race ShmemCreate's
// GetOrCreate for a fresh key.  Both must come back holding the same *Heap
// — a split heap would give each rank a private allocation table and the
// symmetric publish validation would be vacuous.
func shmemRegistryRaceThreads() Threads {
	var reg shmem.Registry
	k := shmem.Key{Comm: 1, Seq: 0}
	var hs [2]*shmem.Heap
	get := func(i int) func() {
		return func() { hs[i] = reg.GetOrCreate(k, 4096, 16) }
	}
	return Threads{
		Names: []string{"rank0", "rank1"},
		Fns:   []func(){get(0), get(1)},
		Final: func() error {
			if hs[0] == nil || hs[0] != hs[1] {
				return fmt.Errorf("registry race split the heap: %p vs %p", hs[0], hs[1])
			}
			if reg.Lookup(k) != hs[0] {
				return fmt.Errorf("registry lookup does not resolve the raced heap")
			}
			return nil
		},
	}
}

// TestCheckShmemRegistryRace: PCT over the heap registry's first-use race.
func TestCheckShmemRegistryRace(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, shmemRegistryRaceThreads)
	if rep.Failed {
		t.Fatalf("shmem registry race: %s", rep.Error())
	}
}

// TestCheckShmemRegistryExhaustive: every schedule of the same race.
func TestCheckShmemRegistryExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, shmemRegistryRaceThreads)
	if rep.Failed {
		t.Fatalf("shmem registry race (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
}

// rmaRegistryRaceThreads: the window-registry analogue, driving the seams
// added to rma.Registry.GetOrCreate — two ranks entering WinCreate at once
// race from the fast-path Load to the LoadOrStore and must converge on one
// *Window (the loser's freshly built window is garbage, never visible).
func rmaRegistryRaceThreads() Threads {
	var reg rma.Registry
	k := rma.Key{Comm: 1, Seq: 0}
	var ws [2]*rma.Window
	get := func(i int) func() {
		return func() { ws[i] = reg.GetOrCreate(k, 2) }
	}
	return Threads{
		Names: []string{"rank0", "rank1"},
		Fns:   []func(){get(0), get(1)},
		Final: func() error {
			if ws[0] == nil || ws[0] != ws[1] {
				return fmt.Errorf("registry race split the window: %p vs %p", ws[0], ws[1])
			}
			if reg.Lookup(k) != ws[0] {
				return fmt.Errorf("registry lookup does not resolve the raced window")
			}
			return nil
		},
	}
}

// TestCheckRMARegistryRace: PCT over the window registry's first-use race.
func TestCheckRMARegistryRace(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, rmaRegistryRaceThreads)
	if rep.Failed {
		t.Fatalf("rma registry race: %s", rep.Error())
	}
}

// TestCheckRMARegistryExhaustive: every schedule of the same race.
func TestCheckRMARegistryExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, rmaRegistryRaceThreads)
	if rep.Failed {
		t.Fatalf("rma registry race (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
}
