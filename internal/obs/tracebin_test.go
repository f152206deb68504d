package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestRingCounts(t *testing.T) {
	cases := []struct {
		n        uint64
		capacity int
		retained int
		dropped  int64
	}{
		{0, 4, 0, 0},
		{3, 4, 3, 0},  // n < cap
		{4, 4, 4, 0},  // n == cap
		{10, 4, 4, 6}, // n > cap
	}
	for _, c := range cases {
		r, d := ringCounts(c.n, c.capacity)
		if r != c.retained || d != c.dropped {
			t.Errorf("ringCounts(%d, %d) = (%d, %d), want (%d, %d)",
				c.n, c.capacity, r, d, c.retained, c.dropped)
		}
	}
}

func TestNewTraceRoundsCapacityToPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {100, 128}, {1 << 10, 1 << 10},
	} {
		tr := NewTrace(1, c.ask)
		if got := len(tr.Rank(0).buf); got != c.want {
			t.Errorf("NewTrace(1, %d) capacity = %d, want %d", c.ask, got, c.want)
		}
	}
	// Masked wraparound must still retain the newest events.
	tr := NewTrace(1, 3) // rounds to 4
	for i := 0; i < 6; i++ {
		tr.Rank(0).Emit(KSendEager, -1, int64(i))
	}
	evs := tr.Rank(0).Events()
	if len(evs) != 4 || evs[0].Arg != 2 || evs[3].Arg != 5 {
		t.Fatalf("retained events = %+v, want args 2..5", evs)
	}
}

func TestTraceBinRoundTrip(t *testing.T) {
	tr := NewTrace(3, 8)
	tr.Rank(0).Emit(KSendEager, 1, 64)
	tr.Rank(1).Emit(KRecvEager, 0, 64)
	start := tr.Rank(2).Now()
	tr.Rank(2).EmitSpan(KAllreduce, -1, 5, start)

	var buf bytes.Buffer
	if err := WriteTraceBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTraceBin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.NRanks != 3 || d.Dropped != 0 {
		t.Fatalf("dump meta = %+v, want 3 ranks, 0 dropped", d)
	}
	if !reflect.DeepEqual(d.Events, tr.Events()) {
		t.Fatalf("events mangled:\nwant %+v\ngot  %+v", tr.Events(), d.Events)
	}
}

func TestTraceBinCarriesDropCount(t *testing.T) {
	tr := NewTrace(1, 4)
	for i := 0; i < 10; i++ {
		tr.Rank(0).Emit(KSendEager, -1, int64(i))
	}
	var buf bytes.Buffer
	if err := WriteTraceBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTraceBin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dropped != 6 || len(d.Events) != 4 {
		t.Fatalf("dropped=%d events=%d, want 6/4", d.Dropped, len(d.Events))
	}
}

func TestTraceBinNegativeFieldsSurvive(t *testing.T) {
	// Peer -1 and negative Arg must round-trip through the unsigned encoding.
	events := []Event{{TS: 1, Dur: 2, Arg: -7, Rank: 0, Peer: -1, Kind: KBarrier}}
	var buf bytes.Buffer
	if err := WriteTraceBinMeta(&buf, events, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTraceBin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Events, events) {
		t.Fatalf("round trip mangled: %+v", d.Events)
	}
}

func TestReadTraceBinRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data func() []byte
		want string
	}{
		{"empty", func() []byte { return nil }, "header"},
		{"bad magic", func() []byte {
			return append([]byte("NOTATRCE"), make([]byte, 24)...)
		}, "magic"},
		{"bad version", func() []byte {
			var buf bytes.Buffer
			WriteTraceBinMeta(&buf, nil, 1, 0, nil)
			b := buf.Bytes()
			b[8] = 99
			return b
		}, "version"},
		{"zero ranks", func() []byte {
			var buf bytes.Buffer
			WriteTraceBinMeta(&buf, nil, 1, 0, nil)
			b := buf.Bytes()
			b[12], b[13], b[14], b[15] = 0, 0, 0, 0
			return b
		}, "rank count"},
		{"truncated events", func() []byte {
			var buf bytes.Buffer
			WriteTraceBinMeta(&buf, []Event{{Rank: 0, Kind: KSendEager}}, 1, 0, nil)
			b := buf.Bytes()
			return b[:len(b)-5]
		}, "truncated"},
		{"rank out of range", func() []byte {
			var buf bytes.Buffer
			WriteTraceBinMeta(&buf, []Event{{Rank: 5, Kind: KSendEager}}, 2, 0, nil)
			return buf.Bytes()
		}, "outside"},
	}
	for _, c := range cases {
		_, err := ReadTraceBin(bytes.NewReader(c.data()))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestReadTraceBinHugeHeaderDoesNotPreallocate(t *testing.T) {
	// A header claiming 2^60 events must fail with a truncation error, not
	// attempt a 2^60-slot allocation.
	var buf bytes.Buffer
	WriteTraceBinMeta(&buf, nil, 1, 0, nil)
	b := buf.Bytes()
	b[24], b[31] = 0xff, 0x0f // nevents = huge
	_, err := ReadTraceBin(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation error", err)
	}
}

func TestWriteTraceBinRejectsBadRankCount(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceBinMeta(&buf, nil, 0, 0, nil); err == nil {
		t.Fatal("rank count 0 accepted")
	}
}
