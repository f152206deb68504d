package rma

import (
	"bytes"
	"testing"

	"repro/internal/collective"
)

// FuzzFrameDecode throws arbitrary bytes at the remote-frame decoder.
// Frames arrive off the inter-node links (and, under fault injection,
// after link-layer recovery), so DecodeFrame must never panic: it either
// rejects the input with an error or returns a frame that holds each
// kind's structural invariants and re-encodes to the same header and
// payload it was decoded from.
func FuzzFrameDecode(f *testing.F) {
	// Seed with one valid frame of every kind, including the Aux packings.
	seeds := []Frame{
		{Kind: FramePut, WinSeq: 1, Origin: 0, Target: 1, Off: 64, Payload: []byte("payload")},
		{Kind: FrameAcc, WinSeq: 2, Origin: 1, Target: 0, Off: 0, Aux: PackAcc(collective.OpSum, collective.Float64), Payload: make([]byte, 16)},
		{Kind: FrameGetReq, WinSeq: 3, Origin: 2, Target: 3, Off: 8, Aux: 7, N: 128},
		{Kind: FrameGetRep, WinSeq: 3, Origin: 3, Target: 2, Aux: 7, Payload: bytes.Repeat([]byte{0xAB}, 128)},
		{Kind: FrameNotify, WinSeq: 4, Origin: 0, Target: 1, Aux: 5},
		{Kind: FramePost, WinSeq: 5, Origin: 1, Target: 0, Aux: 3},
		{Kind: FrameComplete, WinSeq: 5, Origin: 0, Target: 1, Aux: 3},
		{Kind: FrameAtomicAdd, WinSeq: 6, Origin: 1, Target: 0, Off: 16, N: 1<<64 - 3},
		{Kind: FrameAtomicStore, WinSeq: 6, Origin: 1, Target: 0, Off: 1<<63 - 8, N: 1 << 63},
		{Kind: FrameFetchAdd, WinSeq: 6, Origin: 0, Target: 1, Off: 24, Aux: 1<<64 - 1, N: 1},
		{Kind: FrameCAS, WinSeq: 6, Origin: 0, Target: 1, Off: 32, Aux: 11, N: 1<<63 - 1, Payload: bytes.Repeat([]byte{0xFF}, 8)},
		{Kind: FrameDeliver, WinSeq: 6, Origin: 1, Target: 0, Off: 40, Aux: 2, N: PackRing(4, 16), Payload: []byte("m0")},
	}
	for i := range seeds {
		f.Add(seeds[i].Encode())
	}
	// Plus degenerate inputs the decoder must reject cleanly.
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, headerLen))
	f.Add(bytes.Repeat([]byte{0xFF}, headerLen+3))
	for _, r := range frameRejects() {
		f.Add(r.wire)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if fr.Kind < FramePut || fr.Kind > FrameDeliver {
			t.Fatalf("decoder accepted out-of-range kind %d", fr.Kind)
		}
		if fr.Off >= 1<<63 {
			t.Fatalf("decoder accepted %v offset %#x past 2^63", fr.Kind, fr.Off)
		}
		switch fr.Kind {
		case FrameGetReq, FrameNotify, FramePost, FrameComplete, FrameAtomicAdd, FrameAtomicStore, FrameFetchAdd:
			if len(fr.Payload) != 0 {
				t.Fatalf("decoder accepted a %v frame with %d payload bytes", fr.Kind, len(fr.Payload))
			}
		case FrameCAS:
			if len(fr.Payload) != 8 {
				t.Fatalf("decoder accepted a cas frame with a %d-byte compare value", len(fr.Payload))
			}
		case FrameDeliver:
			if _, slot := UnpackRing(fr.N); len(fr.Payload) > slot {
				t.Fatalf("decoder accepted a %d-byte delivery into a %d-byte slot", len(fr.Payload), slot)
			}
		}
		// Round-trip: re-encoding an accepted frame must reproduce the
		// input exactly (the payload aliases b, so lengths must agree too).
		if got := fr.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch:\n in:  %x\n out: %x", b, got)
		}
		// The packed metadata must survive a pack/unpack cycle.
		if fr.Kind == FrameAcc {
			op, dt := UnpackAcc(fr.Aux)
			if PackAcc(op, dt) != fr.Aux {
				t.Fatalf("PackAcc(UnpackAcc(%#x)) = %#x", fr.Aux, PackAcc(op, dt))
			}
		}
		if fr.Kind == FrameDeliver {
			if c, s := UnpackRing(fr.N); PackRing(c, s) != fr.N {
				t.Fatalf("PackRing(UnpackRing(%#x)) = %#x", fr.N, PackRing(c, s))
			}
		}
	})
}
