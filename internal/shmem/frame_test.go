package shmem

import (
	"bytes"
	"testing"
)

func roundTrip(t *testing.T, o Op) {
	t.Helper()
	wire := o.Encode(nil)
	if len(wire) != OpHeaderLen {
		t.Fatalf("Encode produced %d bytes, want %d", len(wire), OpHeaderLen)
	}
	got, err := DecodeOp(wire)
	if err != nil {
		t.Fatalf("DecodeOp(%x): %v", wire, err)
	}
	if got != o {
		t.Fatalf("round-trip mismatch: in %+v, out %+v", o, got)
	}
}

func TestOpRoundTripAllKinds(t *testing.T) {
	for _, o := range []Op{
		{Kind: OpAdd, Off: 16, Val: -3},
		{Kind: OpFetchAdd, Off: 24, Val: 1, Req: 9},
		{Kind: OpCAS, Off: 32, Val: 5, Cmp: 4, Req: 11},
		{Kind: OpStore, Off: 40, Val: 1 << 40},
	} {
		roundTrip(t, o)
	}
}

// TestOpRoundTripEdges covers the extremes the wire format must represent
// exactly: offsets at the very top of the largest legal symmetric heap and
// extreme operands.
func TestOpRoundTripEdges(t *testing.T) {
	maxOff := MaxHeapBytes - CellBytes
	for _, o := range []Op{
		{Kind: OpAdd, Off: maxOff, Val: 1},                      // atomic at max offset
		{Kind: OpCAS, Off: maxOff, Cmp: -1, Val: 1<<63 - 1},     // extreme operands
		{Kind: OpStore, Off: maxOff, Val: -1 << 63},             // extreme operands
		{Kind: OpFetchAdd, Off: maxOff, Val: 0, Req: 1<<64 - 1}, // max req id
	} {
		roundTrip(t, o)
	}
}

func TestDecodeOpRejects(t *testing.T) {
	for name, wire := range map[string][]byte{
		"empty":           {},
		"short":           bytes.Repeat([]byte{0}, OpHeaderLen-1),
		"zero kind":       make([]byte, OpHeaderLen),
		"unknown kind":    append([]byte{0xFF}, make([]byte, OpHeaderLen-1)...),
		"negative offset": (&Op{Kind: OpAdd, Off: -8}).Encode(nil),
		"kind past store": append([]byte{OpStore + 1}, make([]byte, OpHeaderLen-1)...),
		"payload on add":  append((&Op{Kind: OpAdd, Off: 0}).Encode(nil), 'x'),
	} {
		if _, err := DecodeOp(wire); err == nil {
			t.Errorf("%s: DecodeOp accepted %x", name, wire)
		}
	}
}
