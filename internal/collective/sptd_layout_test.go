package collective

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/layout"
)

// TestSPTDLayout checks the SPTD's shared memory at its real addresses: every
// dropbox (each non-leader's box and the result) starts its sequence word on
// a cacheline and the first payload bytes, up to 56, share that line; and no
// two written regions — the dropboxes and the per-thread lines — share a
// line, so no thread's store ever invalidates a line another thread is
// polling for something else.  Thread counts and payload sizes are varied so
// the allocation lands in size classes of every alignment.
func TestSPTDLayout(t *testing.T) {
	const line = layout.CachelineBytes
	addr := func(p unsafe.Pointer) uintptr { return uintptr(p) }
	for _, n := range []int{1, 2, 3, 4, 5, 7, 9, 17} {
		for _, maxPayload := range []int{0, 8, 56, 57, 200, 2048} {
			t.Run(fmt.Sprintf("%dthreads/%dB", n, maxPayload), func(t *testing.T) {
				s := NewSPTD(n, maxPayload)
				owner := map[uintptr]string{} // line address -> region that writes it
				claim := func(name string, lo, hi uintptr) {
					for l := lo &^ (line - 1); l < hi; l += line {
						if o, ok := owner[l]; ok {
							t.Fatalf("%s and %s share the line at %#x", o, name, l)
						}
						owner[l] = name
					}
				}
				for b := range s.boxes {
					box := &s.boxes[b]
					seq := addr(unsafe.Pointer(box.seq))
					name := fmt.Sprintf("box %d", b)
					if b == 0 {
						name = "result"
					}
					if seq%line != 0 {
						t.Fatalf("%s: sequence word at %#x is not on a cacheline boundary", name, seq)
					}
					if len(box.buf) != maxPayload {
						t.Fatalf("%s: payload of %d bytes, want %d", name, len(box.buf), maxPayload)
					}
					end := seq + 8
					if maxPayload > 0 {
						p0 := addr(unsafe.Pointer(&box.buf[0]))
						if p0 != seq+8 {
							t.Fatalf("%s: payload at %#x, sequence word at %#x", name, p0, seq)
						}
						if last := p0 + uintptr(min(maxPayload, line-8)) - 1; last/line != seq/line {
							t.Fatalf("%s: a small payload leaves its sequence word's line", name)
						}
						end = p0 + uintptr(maxPayload)
					}
					claim(name, seq, end)
				}
				for tid, th := range s.threads {
					lo := addr(unsafe.Pointer(th))
					claim(fmt.Sprintf("thread %d", tid), lo, lo+unsafe.Sizeof(*th))
					if ack := addr(unsafe.Pointer(&s.words[s.lineWord(tid)+ackWord])); ack != addr(unsafe.Pointer(&th.ack)) {
						t.Fatalf("thread %d: ack at %#x, but waits poll %#x", tid, addr(unsafe.Pointer(&th.ack)), ack)
					}
				}
			})
		}
	}
}
