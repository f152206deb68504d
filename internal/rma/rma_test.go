package rma

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/collective"
	"repro/internal/shmem"
)

func spin(cond func() bool) {
	for !cond() {
	}
}

func TestCopyInOutBounds(t *testing.T) {
	w := NewWindow(2)
	w.Attach(0, make([]byte, 16))
	w.Attach(1, make([]byte, 8))

	w.CopyIn(0, 4, []byte{1, 2, 3, 4})
	got := make([]byte, 4)
	w.CopyOut(0, 4, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("CopyOut = %v", got)
	}

	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"overflow", func() { w.CopyIn(1, 4, make([]byte, 8)) }},
		{"negative-off", func() { w.CopyIn(0, -1, []byte{1}) }},
		{"bad-rank", func() { w.CopyIn(7, 0, []byte{1}) }},
		{"get-overflow", func() { w.CopyOut(1, 0, make([]byte, 9)) }},
		{"bad-slot", func() { w.Notify(0, NotifySlots) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestAccumulateSerialized(t *testing.T) {
	const writers, each = 8, 1000
	w := NewWindow(1)
	w.Attach(0, make([]byte, 8))
	one := codec.Int64Bytes([]int64{1})

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				w.AccumulateLocal(0, 0, one, collective.OpSum, collective.Int64, spin)
			}
		}()
	}
	wg.Wait()
	got := make([]int64, 1)
	codec.GetInt64s(got, w.Buffer(0))
	if got[0] != writers*each {
		t.Fatalf("accumulated %d, want %d", got[0], writers*each)
	}
}

func TestFenceFlags(t *testing.T) {
	w := NewWindow(3)
	if w.FenceReached(1) {
		t.Fatal("round 1 reached before any arrivals")
	}
	w.FenceArrive(0, 1)
	w.FenceArrive(2, 1)
	if w.FenceReached(1) {
		t.Fatal("round 1 reached with rank 1 missing")
	}
	w.FenceArrive(1, 2) // a rank ahead still satisfies earlier rounds
	if !w.FenceReached(1) {
		t.Fatal("round 1 not reached after all arrivals")
	}
	if w.FenceReached(2) {
		t.Fatal("round 2 reached early")
	}
}

func TestPSCWFlags(t *testing.T) {
	w := NewWindow(2)
	if w.Posted(1, 1) {
		t.Fatal("posted before Post")
	}
	w.Post(1, 1)
	if !w.Posted(1, 1) {
		t.Fatal("not posted after Post")
	}
	if w.Completed(0, 1, 1) {
		t.Fatal("completed before Complete")
	}
	w.Complete(0, 1, 1)
	if !w.Completed(0, 1, 1) {
		t.Fatal("not completed after Complete")
	}
}

func TestNotifyCounters(t *testing.T) {
	w := NewWindow(2)
	w.Notify(1, 3)
	w.Notify(1, 3)
	w.Notify(1, 0)
	if n := w.NotifyCount(1, 3); n != 2 {
		t.Fatalf("slot 3 count = %d, want 2", n)
	}
	if n := w.NotifyCount(1, 0); n != 1 {
		t.Fatalf("slot 0 count = %d, want 1", n)
	}
	if n := w.NotifyCount(0, 3); n != 0 {
		t.Fatalf("rank 0 count = %d, want 0", n)
	}
}

func TestRegistryConverges(t *testing.T) {
	var g Registry
	k := Key{Comm: 7, Seq: 1}
	const goroutines = 8
	wins := make([]*Window, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wins[i] = g.GetOrCreate(k, 4)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if wins[i] != wins[0] {
			t.Fatal("concurrent GetOrCreate returned distinct windows")
		}
	}
	if g.Lookup(Key{Comm: 7, Seq: 2}) != nil {
		t.Fatal("Lookup invented a window")
	}
	g.Free(k)
	if g.Lookup(k) != nil {
		t.Fatal("window survived Free")
	}
}

// frameRoundTrip encodes f, decodes it and checks every field survives.
func frameRoundTrip(t *testing.T, f Frame) {
	t.Helper()
	got, err := DecodeFrame(f.Encode())
	if err != nil {
		t.Fatalf("%v: decode: %v", f.Kind, err)
	}
	if got.Kind != f.Kind || got.WinSeq != f.WinSeq || got.Origin != f.Origin ||
		got.Target != f.Target || got.Off != f.Off || got.Aux != f.Aux || got.N != f.N {
		t.Fatalf("%v: header mismatch: %+v vs %+v", f.Kind, got, f)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("%v: payload mismatch", f.Kind)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Kind: FramePut, WinSeq: 3, Origin: 1, Target: 2, Off: 64, Payload: []byte("hello")},
		{Kind: FrameAcc, WinSeq: 1, Origin: 0, Target: 5, Off: 8,
			Aux: PackAcc(collective.OpMax, collective.Float32), Payload: []byte{9, 8, 7, 6}},
		{Kind: FrameGetReq, WinSeq: 2, Origin: 4, Target: 0, Off: 128, Aux: 42, N: 256},
		{Kind: FrameGetRep, Origin: 0, Target: 4, Aux: 42, Payload: bytes.Repeat([]byte{0xAB}, 256)},
		{Kind: FrameNotify, WinSeq: 9, Origin: 2, Target: 3, Aux: 5},
	} {
		frameRoundTrip(t, f)
	}
	if _, err := DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame decoded")
	}
	if _, err := DecodeFrame(make([]byte, headerLen)); err == nil {
		t.Fatal("zero frame kind decoded")
	}
	op, dt := UnpackAcc(PackAcc(collective.OpProd, collective.Int32))
	if op != collective.OpProd || dt != collective.Int32 {
		t.Fatalf("PackAcc round trip = (%v, %v)", op, dt)
	}
	if c, s := UnpackRing(PackRing(1<<32-1, 1<<32-8)); c != 1<<32-1 || s != 1<<32-8 {
		t.Fatalf("PackRing round trip = (%d, %d)", c, s)
	}
}

// TestAtomicFrameRoundTrip covers one frame of each symmetric-heap kind:
// the four remote atomics and the mailbox delivery.
func TestAtomicFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Kind: FrameAtomicAdd, WinSeq: 4, Origin: 1, Target: 0, Off: 16, N: uint64(1<<64 - 3)},
		{Kind: FrameFetchAdd, WinSeq: 4, Origin: 0, Target: 1, Off: 24, Aux: 9, N: 1},
		{Kind: FrameCAS, WinSeq: 4, Origin: 0, Target: 1, Off: 32, Aux: 11, N: 5,
			Payload: binary.LittleEndian.AppendUint64(nil, 4)},
		{Kind: FrameAtomicStore, WinSeq: 4, Origin: 1, Target: 0, Off: 40, N: 1 << 40},
		{Kind: FrameDeliver, WinSeq: 4, Origin: 1, Target: 0, Off: 40, Aux: 12, N: PackRing(4, 16), Payload: []byte("hello")},
	} {
		frameRoundTrip(t, f)
	}
}

// TestAtomicFrameRoundTripEdges covers the extremes the atomic frames
// must carry exactly: a cell at the top of the largest legal symmetric
// heap, extreme operands and the largest request id.
func TestAtomicFrameRoundTripEdges(t *testing.T) {
	maxOff := uint64(shmem.MaxHeapBytes - shmem.CellBytes)
	for _, f := range []Frame{
		{Kind: FrameAtomicAdd, Off: maxOff, N: 1},
		{Kind: FrameCAS, Off: maxOff, N: 1<<63 - 1, Payload: bytes.Repeat([]byte{0xFF}, 8)},
		{Kind: FrameAtomicStore, Off: maxOff, N: 1 << 63},
		{Kind: FrameFetchAdd, Off: maxOff, Aux: 1<<64 - 1},
	} {
		frameRoundTrip(t, f)
	}
}

// frameReject is one input DecodeFrame must refuse.
type frameReject struct {
	name string
	wire []byte
}

// frameRejects lists the structurally broken frames: truncation, an
// unknown kind, an offset past 2^63 (negative as an int64), and a payload
// of the wrong length for a fixed-size kind.
func frameRejects() []frameReject {
	enc := func(f Frame) []byte { return f.Encode() }
	return []frameReject{
		{"empty", []byte{}},
		{"short", bytes.Repeat([]byte{byte(FrameAtomicAdd)}, headerLen-1)},
		{"zero kind", make([]byte, headerLen)},
		{"unknown kind", append([]byte{0xFF}, make([]byte, headerLen-1)...)},
		{"kind past deliver", append([]byte{byte(FrameDeliver) + 1}, make([]byte, headerLen-1)...)},
		{"negative offset", enc(Frame{Kind: FrameAtomicAdd, Off: uint64(1<<64 - 8)})},
		{"payload on add", enc(Frame{Kind: FrameAtomicAdd, Payload: []byte{'x'}})},
		{"payload on fetch-add", enc(Frame{Kind: FrameFetchAdd, Payload: make([]byte, 8)})},
		{"cas without a compare value", enc(Frame{Kind: FrameCAS, Off: 8})},
		{"cas with a short compare value", enc(Frame{Kind: FrameCAS, Off: 8, Payload: make([]byte, 4)})},
		{"payload on get-req", enc(Frame{Kind: FrameGetReq, N: 8, Payload: []byte{1}})},
		{"delivery larger than its slot", enc(Frame{Kind: FrameDeliver, N: PackRing(4, 8), Payload: make([]byte, 9)})},
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	for _, r := range frameRejects() {
		if f, err := DecodeFrame(r.wire); err == nil {
			t.Errorf("%s: DecodeFrame accepted %x as %+v", r.name, r.wire, f)
		}
	}
}
