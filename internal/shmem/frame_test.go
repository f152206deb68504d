package shmem

import (
	"bytes"
	"testing"
)

func roundTrip(t *testing.T, o Op) Op {
	t.Helper()
	wire := o.Encode(nil)
	if len(wire) != OpHeaderLen+len(o.Data) {
		t.Fatalf("Encode produced %d bytes, want %d", len(wire), OpHeaderLen+len(o.Data))
	}
	got, err := DecodeOp(wire)
	if err != nil {
		t.Fatalf("DecodeOp(%x): %v", wire, err)
	}
	if got.Kind != o.Kind || got.Off != o.Off || got.Val != o.Val || got.Cmp != o.Cmp || got.Req != o.Req {
		t.Fatalf("round-trip header mismatch: in %+v, out %+v", o, got)
	}
	if !bytes.Equal(got.Data, o.Data) {
		t.Fatalf("round-trip payload mismatch: in %x, out %x", o.Data, got.Data)
	}
	return got
}

func TestOpRoundTripAllKinds(t *testing.T) {
	for _, o := range []Op{
		{Kind: OpPut, Off: 64, Data: []byte("payload")},
		{Kind: OpGet, Off: 8, Val: 128, Req: 7},
		{Kind: OpAdd, Off: 16, Val: -3},
		{Kind: OpFetchAdd, Off: 24, Val: 1, Req: 9},
		{Kind: OpCAS, Off: 32, Val: 5, Cmp: 4, Req: 11},
		{Kind: OpStore, Off: 40, Val: 1 << 40},
	} {
		roundTrip(t, o)
	}
}

// TestOpRoundTripEdges covers the degenerate extremes the wire format must
// represent exactly: zero-length transfers and offsets at the very top of
// the largest legal symmetric heap.
func TestOpRoundTripEdges(t *testing.T) {
	maxOff := MaxHeapBytes - CellBytes
	for _, o := range []Op{
		{Kind: OpPut, Off: 0, Data: nil},                        // zero-length put
		{Kind: OpPut, Off: maxOff, Data: []byte{}},              // zero-length at max offset
		{Kind: OpGet, Off: 0, Val: 0, Req: 1},                   // zero-length get
		{Kind: OpGet, Off: maxOff, Val: CellBytes, Req: 2},      // last addressable cell
		{Kind: OpAdd, Off: maxOff, Val: 1},                      // atomic at max offset
		{Kind: OpCAS, Off: maxOff, Cmp: -1, Val: 1<<63 - 1},     // extreme operands
		{Kind: OpStore, Off: maxOff, Val: -1 << 63},             // extreme operands
		{Kind: OpFetchAdd, Off: maxOff, Val: 0, Req: 1<<64 - 1}, // max req id
	} {
		roundTrip(t, o)
	}

	// A zero-length put round-trips to nil Data (the decoder does not
	// materialize an empty slice), and applies as a no-op anywhere in range.
	o := Op{Kind: OpPut, Off: 8, Data: []byte{}}
	got := roundTrip(t, o)
	if got.Data != nil {
		t.Fatalf("zero-length put decoded with non-nil Data %v", got.Data)
	}
	buf := AlignedBytes(16)
	got.Apply(buf)
}

func TestDecodeOpRejects(t *testing.T) {
	for name, wire := range map[string][]byte{
		"empty":            {},
		"short":            bytes.Repeat([]byte{0}, OpHeaderLen-1),
		"zero kind":        make([]byte, OpHeaderLen),
		"unknown kind":     append([]byte{0xFF}, make([]byte, OpHeaderLen-1)...),
		"negative offset":  (&Op{Kind: OpAdd, Off: -8}).Encode(nil),
		"negative get len": (&Op{Kind: OpGet, Off: 0, Val: -1}).Encode(nil),
		"payload on add":   append((&Op{Kind: OpAdd, Off: 0}).Encode(nil), 'x'),
	} {
		if _, err := DecodeOp(wire); err == nil {
			t.Errorf("%s: DecodeOp accepted %x", name, wire)
		}
	}
}
