package obs

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"
)

// FuzzReadTraceBin throws arbitrary bytes at the trace-dump reader.  Dumps
// are files a user hands to puretrace, possibly truncated or from another
// build, so ReadTraceBin must never panic, must never let a count in the
// header size an allocation (a huge count fails on truncation, having
// allocated at most maxTraceBinAlloc entries per table plus what the input's
// records account for), and every dump it accepts must be consistent: each
// event's rank in [0, NRanks), the placement table empty or one entry per
// rank.
func FuzzReadTraceBin(f *testing.F) {
	meta := TraceMeta{
		Node: 1, Nodes: 2, StartUnixNano: 1_700_000_000_000_000_000,
		NodeOfRank: []int32{0, 0, 1, 1},
		Clock:      []ClockSample{{Peer: 0, LocalUnixNano: 5, OffsetNs: -7, DelayNs: 90}},
		Links:      []LinkEvent{{TS: 3, Kind: LinkSend, Node: 1, Peer: 0, Seq: 9, Bytes: 64}},
	}
	events := []Event{
		{TS: 1, Rank: 0, Peer: 2, Kind: KSendEager, Arg: 8},
		{TS: 2, Dur: 40, Rank: 3, Peer: -1, Kind: KRendezvousHandoff, Arg: 1 << 16},
	}
	var full, bare bytes.Buffer
	if err := WriteTraceBinMeta(&full, events, 4, 3, &meta); err != nil {
		f.Fatal(err)
	}
	if err := WriteTraceBinMeta(&bare, nil, 1, 0, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(bare.Bytes())
	for _, cut := range []int{0, 7, 31, 32, 59, 60, full.Len() - 1} {
		f.Add(full.Bytes()[:cut])
	}
	for _, version := range []uint32{1, 3, 0xffffffff} {
		b := bytes.Clone(full.Bytes())
		binary.LittleEndian.PutUint32(b[8:], version)
		f.Add(b)
	}
	// One huge count per table, each reached with the tables before it empty.
	for _, set := range []func(b []byte){
		func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1<<60) }, // events
		func(b []byte) { // placements, one per rank
			binary.LittleEndian.PutUint32(b[12:], 1<<31-1)
			binary.LittleEndian.PutUint32(b[32+16:], 1<<31-1)
		},
		func(b []byte) { binary.LittleEndian.PutUint32(b[32+20:], 1<<32-1) }, // clock samples
		func(b []byte) { binary.LittleEndian.PutUint32(b[32+24:], 1<<32-1) }, // link events
	} {
		huge := bytes.Clone(bare.Bytes())
		set(huge)
		f.Add(huge)
	}

	prealloc := uint64(maxTraceBinAlloc) *
		uint64(unsafe.Sizeof(int32(0))+unsafe.Sizeof(ClockSample{})+unsafe.Sizeof(LinkEvent{})+unsafe.Sizeof(Event{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := ReadTraceBin(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		// Appending n records costs at most a few times their decoded size,
		// which is within a small factor of their encoded size; the slack
		// covers the bufio buffer and the error.
		if got, bound := after.TotalAlloc-before.TotalAlloc, prealloc+16*uint64(len(b))+64<<10; got > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(b), got, bound)
		}
		if err != nil {
			return
		}
		if n := len(d.Meta.NodeOfRank); n != 0 && n != d.NRanks {
			t.Fatalf("accepted a %d-entry placement table for %d ranks", n, d.NRanks)
		}
		for i, e := range d.Events {
			if e.Rank < 0 || int(e.Rank) >= d.NRanks {
				t.Fatalf("accepted event %d with rank %d outside [0,%d)", i, e.Rank, d.NRanks)
			}
		}
	})
}
