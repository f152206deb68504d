package shmem

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestAlignedBytes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		b := AlignedBytes(n)
		if len(b) != n {
			t.Fatalf("AlignedBytes(%d) has len %d", n, len(b))
		}
		if n > 0 {
			// The cell resolver's own alignment check is the assertion.
			if n >= CellBytes {
				AtomicStore(b, 0, 42)
				if got := AtomicLoad(b, 0); got != 42 {
					t.Fatalf("cell 0 = %d, want 42", got)
				}
			}
		}
	}
}

func TestAtomicOps(t *testing.T) {
	b := AlignedBytes(64)
	AtomicStore(b, 8, 100)
	AtomicAdd(b, 8, 5)
	if got := AtomicLoad(b, 8); got != 105 {
		t.Fatalf("after add: %d, want 105", got)
	}
	if old := AtomicFetchAdd(b, 8, -5); old != 105 {
		t.Fatalf("fetch-add old = %d, want 105", old)
	}
	if old := AtomicCAS(b, 8, 100, 7); old != 100 {
		t.Fatalf("cas old = %d, want 100", old)
	}
	if old := AtomicCAS(b, 8, 100, 9); old != 7 {
		t.Fatalf("failed cas old = %d, want 7", old)
	}
	if got := AtomicLoad(b, 8); got != 7 {
		t.Fatalf("final = %d, want 7", got)
	}
}

func TestAtomicAddConcurrent(t *testing.T) {
	b := AlignedBytes(CellBytes)
	const gor, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				AtomicAdd(b, 0, 1)
			}
		}()
	}
	wg.Wait()
	if got := AtomicLoad(b, 0); got != gor*per {
		t.Fatalf("lost updates: %d, want %d", got, gor*per)
	}
}

func TestCellPanics(t *testing.T) {
	b := AlignedBytes(16)
	for name, f := range map[string]func(){
		"overflow":  func() { AtomicLoad(b, 16) },
		"negative":  func() { AtomicLoad(b, -8) },
		"unaligned": func() { AtomicLoad(b, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestLocalAllocDeterministic feeds two mirrors the same call history and
// requires identical placements — the property the symmetric heap rests on.
func TestLocalAllocDeterministic(t *testing.T) {
	const heap = 1 << 16
	run := func(a *LocalAlloc) []int64 {
		var offs []int64
		var seq int
		alloc := func(n int64) int64 {
			off, err := a.Alloc(seq, Align8(n), heap)
			if err != nil {
				t.Fatal(err)
			}
			seq++
			offs = append(offs, off)
			return off
		}
		o0 := alloc(100)
		o1 := alloc(8)
		alloc(256)
		if _, _, err := a.Release(o1); err != nil {
			t.Fatal(err)
		}
		alloc(8)  // reuses o1's hole (first fit)
		alloc(64) // no hole fits; bump
		if _, _, err := a.Release(o0); err != nil {
			t.Fatal(err)
		}
		alloc(48) // fits in o0's 104-byte hole
		return offs
	}
	var a, b LocalAlloc
	oa, ob := run(&a), run(&b)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("alloc %d: mirror A placed at %d, mirror B at %d", i, oa[i], ob[i])
		}
	}
	if oa[3] != oa[1] {
		t.Fatalf("freed hole not reused first-fit: got %d, want %d", oa[3], oa[1])
	}
}

func TestLocalAllocCoalesceAndReclaim(t *testing.T) {
	var a LocalAlloc
	const heap = 1 << 12
	var offs []int64
	for seq := 0; seq < 4; seq++ {
		off, err := a.Alloc(seq, 64, heap)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// Free middle two out of order: they must coalesce into one 128B hole.
	a.Release(offs[2])
	a.Release(offs[1])
	off, err := a.Alloc(4, 128, heap)
	if err != nil {
		t.Fatal(err)
	}
	if off != offs[1] {
		t.Fatalf("coalesced hole not reused: got %d, want %d", off, offs[1])
	}
	// Free everything: brk must retract to 0.
	a.Release(offs[0])
	a.Release(off)
	a.Release(offs[3])
	if a.brk != 0 {
		t.Fatalf("brk = %d after freeing all, want 0", a.brk)
	}
	if len(a.free) != 0 {
		t.Fatalf("free list %v not fully reclaimed", a.free)
	}
	if _, _, err := a.Release(12345); err == nil {
		t.Fatal("Release of bogus offset did not error")
	}
}

func TestHeapPublishConvergence(t *testing.T) {
	h := NewHeap(4096, 8)
	if got := h.Publish(0, 128, 64); got != 128 {
		t.Fatalf("first publish returned %d", got)
	}
	// A peer publishing the same extent converges on it.
	if got := h.Publish(0, 128, 64); got != 128 {
		t.Fatalf("second publish returned %d", got)
	}
	off, size, live, ok := h.Extent(0)
	if !ok || !live || off != 128 || size != 64 {
		t.Fatalf("Extent = (%d,%d,%v,%v)", off, size, live, ok)
	}
	h.PublishFree(0)
	h.PublishFree(0) // racing free converges
	if _, _, live, _ := h.Extent(0); live {
		t.Fatal("slot still live after PublishFree")
	}
	// A divergent peer (different extent for the same seq) must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("divergent publish did not panic")
			}
		}()
		h.Publish(0, 256, 64)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("free of unpublished slot did not panic")
			}
		}()
		h.PublishFree(5)
	}()
}

func TestHeapRegistry(t *testing.T) {
	var reg Registry
	k := Key{Comm: 1, Seq: 2}
	a := reg.GetOrCreate(k, 4096, 0)
	b := reg.GetOrCreate(k, 4096, 0)
	if a != b {
		t.Fatal("GetOrCreate returned distinct heaps for one key")
	}
	if reg.Lookup(k) != a {
		t.Fatal("Lookup missed the created heap")
	}
	if reg.Lookup(Key{Comm: 9}) != nil {
		t.Fatal("Lookup invented a heap")
	}
	reg.Free(k)
	if reg.Lookup(k) != nil {
		t.Fatal("Free did not remove the heap")
	}
}

// TestRingCapOnePanics: a single-slot ring is unsound under the stamp
// scheme (publish stamp t+1 collides with recycle stamp t+cap, letting a
// sender overwrite an unconsumed message), so InitRing must reject it.
func TestRingCapOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InitRing accepted a cap-1 ring")
		}
	}()
	r := Ring{Base: 0, Cap: 1, Slot: 8}
	InitRing(AlignedBytes(int(r.Bytes())), r)
}

func TestRingSendPoll(t *testing.T) {
	r := Ring{Base: 16, Cap: 4, Slot: 32}
	buf := AlignedBytes(int(r.Base + r.Bytes()))
	InitRing(buf, r)
	dst := make([]byte, r.Slot)

	var h int64
	// Fill the ring completely, drain it, twice round the generation wrap.
	for round := 0; round < 3; round++ {
		for i := 0; i < r.Cap; i++ {
			if !Send(buf, r, []byte(fmt.Sprintf("r%d-m%d", round, i))) {
				t.Fatalf("round %d: send %d failed on non-full ring", round, i)
			}
		}
		if Send(buf, r, []byte("overflow")) {
			t.Fatalf("round %d: send succeeded on full ring", round)
		}
		for i := 0; i < r.Cap; i++ {
			n, ok := Poll(buf, r, h, dst)
			if !ok {
				t.Fatalf("round %d: poll %d found nothing", round, i)
			}
			want := fmt.Sprintf("r%d-m%d", round, i)
			if string(dst[:n]) != want {
				t.Fatalf("round %d msg %d = %q, want %q", round, i, dst[:n], want)
			}
			h++
		}
		if _, ok := Poll(buf, r, h, dst); ok {
			t.Fatalf("round %d: poll on empty ring returned a message", round)
		}
	}
}

// TestRingConcurrentSenders hammers one ring from several goroutines and
// checks per-sender FIFO and zero loss — the race-detector complement to
// the deterministic model test in internal/check.
func TestRingConcurrentSenders(t *testing.T) {
	r := Ring{Base: 0, Cap: 8, Slot: 16}
	buf := AlignedBytes(int(r.Bytes()))
	InitRing(buf, r)
	const senders, per = 4, 500

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := []byte(fmt.Sprintf("%d:%d", s, i))
				for !Send(buf, r, msg) {
					runtime.Gosched() // ring full: let the consumer drain
				}
			}
		}(s)
	}

	next := make([]int, senders)
	dst := make([]byte, r.Slot)
	var h int64
	for got := 0; got < senders*per; {
		n, ok := Poll(buf, r, h, dst)
		if !ok {
			runtime.Gosched()
			continue
		}
		h++
		got++
		var s, i int
		if _, err := fmt.Sscanf(string(dst[:n]), "%d:%d", &s, &i); err != nil {
			t.Fatalf("garbled message %q: %v", dst[:n], err)
		}
		if i != next[s] {
			t.Fatalf("sender %d out of order: got %d, want %d", s, i, next[s])
		}
		next[s]++
	}
	wg.Wait()
}
