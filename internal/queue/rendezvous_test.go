package queue

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/layout"
	"repro/internal/ssw"
)

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestRendezvousHandoff walks one cell through several post/send/take laps
// and every refusal: each side sees false until the other has moved, a post
// is filled once, a too-large send panics without consuming the post, and a
// second post before the take panics.
func TestRendezvousHandoff(t *testing.T) {
	var c Rendezvous
	dst := make([]byte, 64)
	if c.TrySend([]byte("early")) {
		t.Fatal("TrySend succeeded with nothing posted")
	}
	if _, ok := c.TryTake(); ok {
		t.Fatal("TryTake succeeded with nothing posted")
	}
	for lap := 0; lap < 4; lap++ {
		msg := bytes.Repeat([]byte{byte(lap + 1)}, 16*lap) // lap 0 is zero-length
		c.Post(dst)
		if _, ok := c.TryTake(); ok {
			t.Fatalf("lap %d: TryTake succeeded before the send", lap)
		}
		if !c.TrySend(msg) {
			t.Fatalf("lap %d: TrySend failed on a posted cell", lap)
		}
		if c.TrySend(msg) {
			t.Fatalf("lap %d: a second TrySend filled the same post", lap)
		}
		n, ok := c.TryTake()
		if !ok || n != len(msg) || !bytes.Equal(dst[:n], msg) {
			t.Fatalf("lap %d: TryTake = %d,%v with %q, want %d,true", lap, n, ok, dst[:n], len(msg))
		}
		if _, ok := c.TryTake(); ok {
			t.Fatalf("lap %d: the handoff was taken twice", lap)
		}
	}

	c.Post(dst[:8])
	mustPanic(t, "oversize TrySend", func() { c.TrySend(make([]byte, 9)) })
	if !c.TrySend([]byte("8 bytes!")) {
		t.Fatal("the oversize panic consumed the post: a fitting retry failed")
	}
	mustPanic(t, "Post over an untaken handoff", func() { c.Post(dst) })
	if n, ok := c.TryTake(); !ok || string(dst[:n]) != "8 bytes!" {
		t.Fatalf("TryTake after the retry = %q,%v", dst[:n], ok)
	}
	c.Post(dst)
	mustPanic(t, "second Post", func() { c.Post(dst) })
}

// TestRendezvousTakeDropsDest checks that a completed handoff leaves no
// reference to the receiver's buffer in the cell, so a large receive buffer
// can be collected once its owner drops it.
func TestRendezvousTakeDropsDest(t *testing.T) {
	var c Rendezvous
	c.Post(make([]byte, 1<<20))
	c.TrySend([]byte{1})
	c.TryTake()
	if c.dest != nil {
		t.Fatalf("cell still references a %d-byte buffer after the take", cap(c.dest))
	}
}

// TestRendezvousLayout checks on addresses that the state word and the
// buffer header share one cacheline and that the line holds nothing from
// outside the cell, over a few heap allocations (the allocator's size class
// decides where within a line a cell starts).
func TestRendezvousLayout(t *testing.T) {
	cells := make([]*Rendezvous, 8)
	for i := range cells {
		cells[i] = new(Rendezvous)
	}
	for i, c := range cells {
		base := uintptr(unsafe.Pointer(c))
		state := uintptr(unsafe.Pointer(&c.state))
		destEnd := uintptr(unsafe.Pointer(&c.dest)) + unsafe.Sizeof(c.dest)
		line := state &^ (layout.CachelineBytes - 1)
		if (destEnd-1)&^(layout.CachelineBytes-1) != line {
			t.Fatalf("cell %d at %#x: state word at %#x and buffer header ending at %#x span two cachelines", i, base, state, destEnd)
		}
		if line < base || line+layout.CachelineBytes > base+unsafe.Sizeof(*c) {
			t.Fatalf("cell %d at %#x (%d bytes): the state word's line %#x reaches outside the cell", i, base, unsafe.Sizeof(*c), line)
		}
	}
}

// TestRendezvousConcurrentHandoffs streams variable-length handoffs between
// a receiver and a sender goroutine, each spinning a bounded budget between
// yields as the SSW loop does.  Every payload carries its sequence number and
// a sequence-derived fill, so a send into a stale post or a torn copy shows
// up as a corrupt message; under -race it also checks that the state word
// alone orders the buffer header and the payload.
func TestRendezvousConcurrentHandoffs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		total  = 1 << 16
		maxLen = 200
	)
	length := func(i int) int { return 8 + i%(maxLen-7) }
	var c Rendezvous
	done := make(chan struct{})
	go func() {
		defer close(done)
		var s spinner
		src := make([]byte, maxLen)
		for i := 0; i < total; i++ {
			n := length(i)
			binary.LittleEndian.PutUint64(src, uint64(i))
			for j := 8; j < n; j++ {
				src[j] = byte(i + j)
			}
			for !c.TrySend(src[:n]) {
				s.spin()
			}
		}
	}()
	var s spinner
	dst := make([]byte, maxLen)
	for i := 0; i < total; i++ {
		c.Post(dst)
		n, ok := c.TryTake()
		for !ok {
			s.spin()
			n, ok = c.TryTake()
		}
		if n != length(i) {
			t.Fatalf("handoff %d: %d bytes, want %d", i, n, length(i))
		}
		if got := binary.LittleEndian.Uint64(dst); got != uint64(i) {
			t.Fatalf("handoff %d: sequence %d (stale or torn copy)", i, got)
		}
		for j := 8; j < n; j++ {
			if dst[j] != byte(i+j) {
				t.Fatalf("handoff %d: byte %d = %#x, want %#x", i, j, dst[j], byte(i+j))
			}
		}
	}
	<-done
	if c.TrySend([]byte{1}) {
		t.Fatal("TrySend succeeded after every post was taken")
	}
}

// spinner yields once every ssw.DefaultSpinBudget failed probes, so the
// stress loop above probes in bursts the way a blocked rank does.  One per
// goroutine.
type spinner struct{ n int }

func (s *spinner) spin() {
	if s.n++; s.n%ssw.DefaultSpinBudget == 0 {
		runtime.Gosched()
	}
}
