package shmem

import (
	"bytes"
	"testing"
)

// FuzzShmemFrame throws arbitrary bytes at the shmem op decoder.  Ops
// arrive nested inside rma frames off the modeled network (and, under
// fault injection, after link-layer corruption), so DecodeOp must never
// panic: it either rejects the input with an error or returns an op that
// re-encodes to exactly the bytes it was decoded from.
func FuzzShmemFrame(f *testing.F) {
	// Seed with one valid op of every kind, plus the wire-format extremes.
	seeds := []Op{
		{Kind: OpAdd, Off: 16, Val: -3},
		{Kind: OpFetchAdd, Off: 24, Val: 1, Req: 1<<64 - 1},
		{Kind: OpCAS, Off: 32, Val: 1<<63 - 1, Cmp: -1, Req: 11},
		{Kind: OpStore, Off: 40, Val: -1 << 63},
		{Kind: OpAdd, Off: MaxHeapBytes - CellBytes, Val: 1},
		{Kind: OpFetchAdd, Off: 0, Req: 2},
	}
	for i := range seeds {
		f.Add(seeds[i].Encode(nil))
	}
	// Plus degenerate inputs the decoder must reject cleanly: a kind past
	// the last, an atomic with trailing bytes, and bare garbage.
	f.Add(append([]byte{OpStore + 1}, make([]byte, OpHeaderLen-1)...))
	f.Add(append((&Op{Kind: OpStore, Off: 8}).Encode(nil), "payload"...))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, OpHeaderLen))
	f.Add(bytes.Repeat([]byte{0xFF}, OpHeaderLen+3))

	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := DecodeOp(b)
		if err != nil {
			return
		}
		if o.Kind < OpAdd || o.Kind > OpStore {
			t.Fatalf("decoder accepted out-of-range kind %d", o.Kind)
		}
		if o.Off < 0 {
			t.Fatalf("decoder accepted negative offset %d", o.Off)
		}
		// Round-trip: re-encoding an accepted op must reproduce the input
		// exactly, so trailing bytes must have been rejected too.
		if got := o.Encode(nil); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch:\n in:  %x\n out: %x", b, got)
		}
	})
}
