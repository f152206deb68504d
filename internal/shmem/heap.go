package shmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/schedpoint"
)

// The symmetric heap.
//
// Every rank exposes an identically sized region (its window buffer), and
// allocation is symmetric: the k-th Malloc returns the same offset on every
// rank, so a single offset addresses the "same" object in every rank's
// region (POSH's symmetric-heap contract).  Determinism, not negotiation,
// is what makes that work: every member performs the same sequence of
// Malloc/Free calls in the same order (the usual collective-call-ordering
// obligation, exactly like WinCreate), each rank runs an identical
// deterministic allocator over that call history (LocalAlloc), and
// therefore every rank computes identical offsets with no communication —
// which is also what keeps offsets symmetric across OS processes, where no
// memory is shared at all.
//
// The shared Heap table is the consensus-and-validation layer on top: the
// k-th allocation's extent is CAS-published once into slot k, racing
// publishers converge on the winner's value, and a rank whose locally
// computed offset disagrees with the published one has violated the
// call-ordering contract and panics with a descriptive message instead of
// silently corrupting a peer's object.  The internal/check model tests
// drive this publish protocol directly.

// heapSlot is one CAS-published allocation record.
type heapSlot struct{ v atomic.Uint64 }

// Slot packing: off<<32 | size, with bit 63 marking a freed allocation.
// Size is always >= 8 (Malloc rounds up), so a published slot is never
// zero and the zero value means "not yet published".
const heapFreedBit = uint64(1) << 63

// MaxHeapBytes bounds a symmetric heap so an extent packs into one
// published word (31 bits of offset, 31 of size).
const MaxHeapBytes = int64(1)<<31 - 1

func packExtent(off, size int64) uint64 { return uint64(off)<<32 | uint64(size) }

func unpackExtent(v uint64) (off, size int64) {
	return int64(v << 1 >> 33), int64(v & 0xffffffff)
}

// Heap is the shared state of one symmetric heap: the published allocation
// table.  One Heap is shared by all member ranks in the process (and is
// reachable from the registry by the core layer's remote-frame dispatch);
// the per-rank allocator mirror lives in each rank's handle (LocalAlloc).
type Heap struct {
	size  int64
	slots []heapSlot
}

// DefaultMaxAllocs is the allocation-table capacity used when the caller
// does not size it explicitly.
const DefaultMaxAllocs = 1024

// NewHeap builds the shared state for a symmetric heap of size bytes with
// capacity for maxAllocs lifetime Malloc calls (0 = DefaultMaxAllocs).
func NewHeap(size int64, maxAllocs int) *Heap {
	if size <= 0 || size > MaxHeapBytes {
		panic(fmt.Sprintf("shmem: heap size %d out of range (0, %d]", size, MaxHeapBytes))
	}
	if maxAllocs <= 0 {
		maxAllocs = DefaultMaxAllocs
	}
	return &Heap{size: size, slots: make([]heapSlot, maxAllocs)}
}

// Size returns the symmetric region size in bytes.
func (h *Heap) Size() int64 { return h.size }

// MaxAllocs returns the allocation-table capacity.
func (h *Heap) MaxAllocs() int { return len(h.slots) }

// Publish records allocation seq (0-based Malloc call index) at the locally
// computed extent and returns the canonical offset: the first publisher's.
// Racing publishers converge — the CAS admits exactly one value per slot —
// and because every rank's allocator mirror is deterministic over the same
// call history, a disagreeing survivor means the application broke the
// symmetric call-ordering contract; that is reported as a panic naming both
// extents rather than left to corrupt a peer's object.
func (h *Heap) Publish(seq int, off, size int64) int64 {
	if seq < 0 || seq >= len(h.slots) {
		panic(fmt.Sprintf("shmem: allocation %d overflows the %d-entry symmetric alloc table", seq, len(h.slots)))
	}
	if off < 0 || size < CellBytes || off+size > h.size {
		panic(fmt.Sprintf("shmem: allocation %d (%d bytes at %d) overflows the %d-byte symmetric heap", seq, size, off, h.size))
	}
	packed := packExtent(off, size)
	schedpoint.Point("shmem:heap:publish")
	if h.slots[seq].v.CompareAndSwap(0, packed) {
		return off
	}
	schedpoint.Point("shmem:heap:adopt")
	won := h.slots[seq].v.Load() &^ heapFreedBit
	wOff, wSize := unpackExtent(won)
	if wOff != off || wSize != size {
		panic(fmt.Sprintf(
			"shmem: allocation %d published as %d bytes at offset %d by a peer but computed as %d bytes at %d here — ranks called Malloc/Free in different orders",
			seq, wSize, wOff, size, off))
	}
	return wOff
}

// PublishFree marks allocation seq freed in the shared table.  Racing
// frees converge (the bit is set at most once); freeing an unpublished or
// already freed slot means the call-ordering contract broke.
func (h *Heap) PublishFree(seq int) {
	if seq < 0 || seq >= len(h.slots) {
		panic(fmt.Sprintf("shmem: free of allocation %d overflows the %d-entry symmetric alloc table", seq, len(h.slots)))
	}
	for {
		schedpoint.Point("shmem:heap:free")
		v := h.slots[seq].v.Load()
		if v == 0 {
			panic(fmt.Sprintf("shmem: free of never-published allocation %d", seq))
		}
		if v&heapFreedBit != 0 {
			// A peer already published this free; converged.
			return
		}
		if h.slots[seq].v.CompareAndSwap(v, v|heapFreedBit) {
			return
		}
	}
}

// Extent reports allocation seq's published extent and liveness
// (diagnostics and tests; ok is false for never-published slots).
func (h *Heap) Extent(seq int) (off, size int64, live, ok bool) {
	if seq < 0 || seq >= len(h.slots) {
		return 0, 0, false, false
	}
	v := h.slots[seq].v.Load()
	if v == 0 {
		return 0, 0, false, false
	}
	off, size = unpackExtent(v &^ heapFreedBit)
	return off, size, v&heapFreedBit == 0, true
}

// ---- The per-rank deterministic allocator mirror ----

// span is one region of the heap in LocalAlloc's bookkeeping.
type span struct {
	off, size int64
}

// LocalAlloc is one rank's deterministic allocator state: a bump pointer
// plus an offset-sorted, coalesced free list, with first-fit (lowest
// offset) placement.  Two LocalAllocs fed the same Alloc/Release sequence
// produce identical offsets — the property the symmetric heap rests on —
// so it is plain single-owner state with no synchronization.
type LocalAlloc struct {
	brk  int64
	free []span          // sorted by offset, coalesced, never adjacent to brk
	live map[int64]span  // off -> extent of live allocations
	seqs map[int64]int   // off -> allocation seq (for Release -> PublishFree)
}

// Align8 rounds n up to the cell size.
func Align8(n int64) int64 { return (n + CellBytes - 1) &^ (CellBytes - 1) }

// Alloc places the seq-th allocation of size bytes (already rounded by the
// caller's Malloc) and returns its offset, or -1 with a reason when the
// heap cannot fit it.  First-fit over the free list, else the bump pointer.
func (a *LocalAlloc) Alloc(seq int, size, heapSize int64) (int64, error) {
	if a.live == nil {
		a.live = make(map[int64]span)
		a.seqs = make(map[int64]int)
	}
	off := int64(-1)
	for i, f := range a.free {
		if f.size >= size {
			off = f.off
			if f.size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{off: f.off + size, size: f.size - size}
			}
			break
		}
	}
	if off < 0 {
		if a.brk+size > heapSize {
			return -1, fmt.Errorf("shmem: Malloc of %d bytes exceeds the %d-byte symmetric heap (%d allocated, fragmented free list)", size, heapSize, a.brk)
		}
		off = a.brk
		a.brk += size
	}
	a.live[off] = span{off: off, size: size}
	a.seqs[off] = seq
	return off, nil
}

// Release frees the allocation at off, returning its seq and size.  The
// freed span coalesces with free-list neighbors; a span ending at the bump
// pointer retracts it, so stack-disciplined Malloc/Free reuses the heap
// fully.
func (a *LocalAlloc) Release(off int64) (int, int64, error) {
	s, ok := a.live[off]
	if !ok {
		return 0, 0, fmt.Errorf("shmem: Free(%d) does not match a live allocation", off)
	}
	seq := a.seqs[off]
	delete(a.live, off)
	delete(a.seqs, off)
	// Insert sorted, then coalesce with both neighbors.
	i := 0
	for i < len(a.free) && a.free[i].off < s.off {
		i++
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
		i--
	}
	// Trailing reclaim: a free span ending at brk retracts it.
	if n := len(a.free); n > 0 && a.free[n-1].off+a.free[n-1].size == a.brk {
		a.brk = a.free[n-1].off
		a.free = a.free[:n-1]
	}
	return seq, s.size, nil
}

// LiveBytes reports the total bytes in live allocations (diagnostics).
func (a *LocalAlloc) LiveBytes() int64 {
	var n int64
	for _, s := range a.live {
		n += s.size
	}
	return n
}

// ---- Registry ----

// Key identifies a symmetric heap the way rma.Key identifies a window: the
// owning communicator and the communicator's shmem-creation sequence
// number (every member counts ShmemCreate calls identically).
type Key struct {
	Comm uint64
	Seq  uint64
}

// Registry maps Key -> *Heap, creating heaps on demand; all member ranks in
// a process (and the core layer's remote-frame dispatch) resolve the same
// Heap through it.  Like rma.Registry, concurrent creators race through
// LoadOrStore and must converge on one instance — the schedpoint seams make
// that race explorable by the model tests.
type Registry struct{ m sync.Map }

// GetOrCreate returns the heap for k, creating it if it does not exist yet.
func (g *Registry) GetOrCreate(k Key, size int64, maxAllocs int) *Heap {
	schedpoint.Point("shmem:reg:lookup")
	if v, ok := g.m.Load(k); ok {
		return v.(*Heap)
	}
	schedpoint.Point("shmem:reg:create")
	v, _ := g.m.LoadOrStore(k, NewHeap(size, maxAllocs))
	return v.(*Heap)
}

// Lookup returns the heap for k, or nil.
func (g *Registry) Lookup(k Key) *Heap {
	if v, ok := g.m.Load(k); ok {
		return v.(*Heap)
	}
	return nil
}

// Free removes the heap for k (sequence numbers are never reused, so a
// stale key cannot alias a new heap).
func (g *Registry) Free(k Key) { g.m.Delete(k) }
