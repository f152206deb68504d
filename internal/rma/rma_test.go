package rma

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/collective"
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

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Kind: FramePut, WinSeq: 3, Origin: 1, Target: 2, Off: 64, Payload: []byte("hello")},
		{Kind: FrameAcc, WinSeq: 1, Origin: 0, Target: 5, Off: 8,
			Aux: PackAcc(collective.OpMax, collective.Float32), Payload: []byte{9, 8, 7, 6}},
		{Kind: FrameGetReq, WinSeq: 2, Origin: 4, Target: 0, Off: 128, Aux: 42, N: 256},
		{Kind: FrameGetRep, Origin: 0, Target: 4, Aux: 42, Payload: bytes.Repeat([]byte{0xAB}, 256)},
		{Kind: FrameNotify, WinSeq: 9, Origin: 2, Target: 3, Aux: 5},
	} {
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
}
