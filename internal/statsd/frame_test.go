package statsd

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func mkTagset(raw string) *Tagset {
	return &Tagset{Hash: Hash64([]byte(raw)), Raw: raw}
}

func TestBatchWriterRoundTrip(t *testing.T) {
	w := NewBatchWriter()
	ts1, ts2 := mkTagset("env:prod"), mkTagset("env:dev")
	nameA, nameB := []byte("m.a"), []byte("m.b")
	hA, hB := Hash64(nameA), Hash64(nameB)

	type evt struct {
		nameH uint64
		name  []byte
		ts    *Tagset
		typ   MetricType
		val   float64
	}
	events := []evt{
		{hA, nameA, ts1, Counter, 1},
		{hA, nameA, ts1, Counter, 2},
		{hB, nameB, ts2, Timer, 12.5},
		{hA, nameA, ts2, Gauge, -3},
	}
	for _, e := range events {
		w.Add(e.nameH, e.name, e.ts, e.typ, e.val, KeyHash(e.nameH, e.ts.Hash, e.typ))
	}
	if w.Count() != len(events) {
		t.Fatalf("Count = %d", w.Count())
	}

	msgs := w.Messages(nil)
	if len(msgs) != 2 {
		t.Fatalf("Messages = %d messages, want dict+records", len(msgs))
	}
	names, tags := map[uint64]string{}, map[uint64]string{}
	if k, _ := MsgKind(msgs[0]); k != MsgDict {
		t.Fatalf("first message kind %c", k)
	}
	if err := DecodeDict(msgs[0], names, tags); err != nil {
		t.Fatal(err)
	}
	if names[hA] != "m.a" || names[hB] != "m.b" || tags[ts1.Hash] != "env:prod" || tags[ts2.Hash] != "env:dev" {
		t.Fatalf("dict decoded to %v / %v", names, tags)
	}
	payload, n, err := DecodeRecords(msgs[1])
	if err != nil || n != len(events) {
		t.Fatalf("DecodeRecords: n=%d err=%v", n, err)
	}
	var sum uint64
	for i, e := range events {
		nameH, tagH, typ, val := RecordAt(payload, i)
		if nameH != e.nameH || tagH != e.ts.Hash || typ != e.typ || val != e.val {
			t.Fatalf("record %d decoded to %d/%d/%v/%v", i, nameH, tagH, typ, val)
		}
		sum += Contribution(nameH, tagH, typ, val)
	}

	var bins [NBins]uint64
	w.Commit(&bins)
	if w.SentEvents != uint64(len(events)) || w.SentSum != sum {
		t.Fatalf("committed totals %d/%d, want %d/%d", w.SentEvents, w.SentSum, len(events), sum)
	}
	var binSum uint64
	for _, b := range bins {
		binSum += b
	}
	if binSum != sum {
		t.Fatalf("bins sum %d != contribution sum %d", binSum, sum)
	}

	// After commit the dictionary is not re-sent; records still flow.
	w.Add(hA, nameA, ts1, Counter, 5, KeyHash(hA, ts1.Hash, Counter))
	msgs = w.Messages(msgs)
	if len(msgs) != 1 {
		t.Fatalf("post-commit batch re-sent the dictionary (%d messages)", len(msgs))
	}
	if k, _ := MsgKind(msgs[0]); k != MsgRecords {
		t.Fatalf("post-commit message kind %c", k)
	}
}

func TestBatchWriterRollbackKeepsDict(t *testing.T) {
	w := NewBatchWriter()
	ts := mkTagset("env:prod")
	name := []byte("m.a")
	h := Hash64(name)
	w.Add(h, name, ts, Counter, 1, KeyHash(h, ts.Hash, Counter))
	w.Rollback() // the batch was dropped under backpressure
	if w.SentEvents != 0 || w.SentSum != 0 {
		t.Fatal("rollback leaked into committed totals")
	}

	// The dropped events are gone, but the definitions must still arrive
	// with the next successful batch.
	w.Add(h, name, ts, Counter, 2, KeyHash(h, ts.Hash, Counter))
	msgs := w.Messages(nil)
	if len(msgs) != 2 {
		t.Fatalf("%d messages after rollback, want dict+records", len(msgs))
	}
	payload, n, err := DecodeRecords(msgs[1])
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, _, _, val := RecordAt(payload, 0); val != 2 {
		t.Fatalf("rollback retained a dropped record (val %v)", val)
	}
}

func TestMarkerRoundTrip(t *testing.T) {
	w := NewBatchWriter()
	w.SentEvents, w.SentSum = 12345, 0xdeadbeefcafe
	m := w.AppendMarker(nil, 7, true)
	round, final, ev, sum, err := DecodeMarker(m)
	if err != nil || round != 7 || !final || ev != 12345 || sum != 0xdeadbeefcafe {
		t.Fatalf("marker decoded to %d/%v/%d/%x (%v)", round, final, ev, sum, err)
	}
	if k, _ := MsgKind(m); k != MsgMarker {
		t.Fatalf("marker kind %c", k)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	for _, msg := range [][]byte{nil, {}, {'R'}, {'R', 1, 0, 0, 0}, {'M', 1}, {'D', 0, 1}, {'X', 0}} {
		if _, err := MsgKind(msg); err == nil {
			if k := msg[0]; k == 'R' {
				if _, _, err := DecodeRecords(msg); err == nil {
					t.Fatalf("DecodeRecords accepted %v", msg)
				}
			} else if k == 'M' {
				if _, _, _, _, err := DecodeMarker(msg); err == nil {
					t.Fatalf("DecodeMarker accepted %v", msg)
				}
			} else if k == 'D' {
				if err := DecodeDict(msg, map[uint64]string{}, map[uint64]string{}); err == nil {
					t.Fatalf("DecodeDict accepted %v", msg)
				}
			}
		}
	}
}

// FuzzShardFrame throws arbitrary bytes at the shard-frame decoders: the
// messages an aggregator reads off an ingester's link, which cross a node
// boundary in every multi-node pipeline.  MsgKind, then the decoder it names,
// must never panic, and a records message is accepted only whole: exactly
// 25 bytes per record it counts.  The same bytes also drive a BatchWriter,
// read as events; its messages must decode back to what was added.
func FuzzShardFrame(f *testing.F) {
	w := NewBatchWriter()
	for i, tags := range []string{"env:prod", "env:dev,host:a"} {
		name := []byte(fmt.Sprintf("m.%d", i))
		ts, h := mkTagset(tags), Hash64(name)
		w.Add(h, name, ts, MetricType(i), float64(i)+0.5, KeyHash(h, ts.Hash, MetricType(i)))
	}
	var seeds [][]byte
	for _, m := range w.Messages(nil) {
		seeds = append(seeds, append([]byte(nil), m...))
	}
	var bins [NBins]uint64
	w.Commit(&bins)
	seeds = append(seeds, w.AppendMarker(nil, 3, true))
	for _, m := range seeds {
		for _, cut := range []int{len(m), len(m) - 1, len(m) / 2, 1} {
			f.Add(m[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		if kind, err := MsgKind(msg); err == nil {
			switch kind {
			case MsgDict:
				DecodeDict(msg, map[uint64]string{}, map[uint64]string{})
			case MsgRecords:
				if payload, n, err := DecodeRecords(msg); err == nil {
					if len(payload) != recSize*n || len(msg) != recordsHeader+recSize*n {
						t.Fatalf("accepted %d records in a %d-byte message", n, len(msg))
					}
					for i := 0; i < n; i++ {
						RecordAt(payload, i)
					}
				}
			case MsgMarker:
				DecodeMarker(msg)
			}
		}
		shardRoundTrip(t, msg)
	})
}

// shardRoundTrip reads b as events of 11 bytes each — name, tagset and type
// selectors, then the value's bits — adds them to a fresh BatchWriter and
// checks that its messages decode to exactly those events and definitions,
// and its marker to their committed count and checksum.
func shardRoundTrip(t *testing.T, b []byte) {
	type rec struct {
		nameH, tagH uint64
		typ         MetricType
		bits        uint64
	}
	w := NewBatchWriter()
	var want []rec
	wantNames, wantTags := map[uint64]string{}, map[uint64]string{}
	var sum uint64
	for ; len(b) >= 11; b = b[11:] {
		name := fmt.Sprintf("m.%d", b[0]%8)
		ts, h := mkTagset(fmt.Sprintf("t:%d", b[1]%4)), Hash64([]byte(name))
		typ, v := MetricType(b[2])%nMetricTypes, math.Float64frombits(binary.LittleEndian.Uint64(b[3:]))
		w.Add(h, []byte(name), ts, typ, v, KeyHash(h, ts.Hash, typ))
		want = append(want, rec{h, ts.Hash, typ, math.Float64bits(v)})
		wantNames[h], wantTags[ts.Hash] = name, ts.Raw
		sum += Contribution(h, ts.Hash, typ, v)
	}
	var got []rec
	names, tags := map[uint64]string{}, map[uint64]string{}
	for _, m := range w.Messages(nil) {
		switch kind, _ := MsgKind(m); kind {
		case MsgDict:
			if err := DecodeDict(m, names, tags); err != nil {
				t.Fatalf("dictionary the writer built: %v", err)
			}
		case MsgRecords:
			payload, n, err := DecodeRecords(m)
			if err != nil {
				t.Fatalf("records the writer built: %v", err)
			}
			for i := 0; i < n; i++ {
				nameH, tagH, typ, v := RecordAt(payload, i)
				got = append(got, rec{nameH, tagH, typ, math.Float64bits(v)})
			}
		default:
			t.Fatalf("writer built a message of kind %q", m[0])
		}
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(tags, wantTags) {
		t.Fatalf("decoded %v with %v / %v, added %v with %v / %v", got, names, tags, want, wantNames, wantTags)
	}
	var bins [NBins]uint64
	w.Commit(&bins)
	if _, _, events, s, err := DecodeMarker(w.AppendMarker(nil, 1, false)); err != nil || events != uint64(len(want)) || s != sum {
		t.Fatalf("marker decoded to %d events, sum %x (%v); added %d, sum %x", events, s, err, len(want), sum)
	}
}

func TestAggApply(t *testing.T) {
	a := NewAgg()
	hA, hT := Hash64([]byte("m.a")), Hash64([]byte("env:prod"))
	key := KeyHash(hA, hT, Counter)
	a.Apply(key, hA, hT, Counter, 2)
	a.Apply(key, hA, hT, Counter, 3)
	gkey := KeyHash(hA, hT, Gauge)
	a.Apply(gkey, hA, hT, Gauge, 7)
	a.Apply(gkey, hA, hT, Gauge, 9)
	hkey := KeyHash(hA, hT, Timer)
	a.Apply(hkey, hA, hT, Timer, 100)

	if a.Keys != 3 || a.Count != 5 {
		t.Fatalf("keys=%d count=%d", a.Keys, a.Count)
	}
	seen := 0
	for k, s := range a.m {
		seen++
		switch k {
		case key:
			if s.Sum != 5 || s.Count != 2 {
				t.Fatalf("counter series %+v", s)
			}
		case gkey:
			if s.Last != 9 {
				t.Fatalf("gauge series %+v", s)
			}
		case hkey:
			if s.Count != 1 || s.Min != 100 || s.Max != 100 {
				t.Fatalf("timer series %+v", s)
			}
		}
	}
	if seen != 3 {
		t.Fatalf("visited %d series", seen)
	}

	want := Contribution(hA, hT, Counter, 2) + Contribution(hA, hT, Counter, 3) +
		Contribution(hA, hT, Gauge, 7) + Contribution(hA, hT, Gauge, 9) +
		Contribution(hA, hT, Timer, 100)
	var got uint64
	for _, b := range a.Bins {
		got += b
	}
	if got != want || a.Sum != want {
		t.Fatalf("bins %x sum %x, want %x", got, a.Sum, want)
	}
}

func TestAggApplySteadyStateZeroAlloc(t *testing.T) {
	a := NewAgg()
	hA, hT := Hash64([]byte("m.a")), Hash64([]byte("env:prod"))
	key := KeyHash(hA, hT, Timer)
	a.Apply(key, hA, hT, Timer, 1) // create the series
	allocs := testing.AllocsPerRun(1000, func() {
		a.Apply(key, hA, hT, Timer, 42)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Apply allocates %v/op, want 0", allocs)
	}
}

func TestGenDeterministicAndParseable(t *testing.T) {
	cfg := GenConfig{Keys: 128, ZipfS: 1.1, Seed: 42}
	g1, g2 := NewGen(cfg), NewGen(cfg)
	var ev Event
	buf := make([]byte, 0, 256)
	counts := map[uint64]int{}
	for i := 0; i < 5000; i++ {
		l1 := g1.Next(buf[:0])
		l2 := g2.Next(make([]byte, 0, 256))
		if string(l1) != string(l2) {
			t.Fatalf("generator not deterministic at %d: %q vs %q", i, l1, l2)
		}
		if err := ParseLine(l1, &ev); err != nil {
			t.Fatalf("generated line %q does not parse: %v", l1, err)
		}
		counts[KeyHash(Hash64(ev.Name), Hash64(ev.Tags), ev.Type)]++
	}
	// Zipf skew: the most popular key must dominate a uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*5000/128 {
		t.Fatalf("hottest key got %d/5000 events; zipf skew missing", max)
	}
}

func BenchmarkStatsdParse(b *testing.B) {
	g := NewGen(GenConfig{Keys: 1024, ZipfS: 1.1})
	lines := make([][]byte, 256)
	for i := range lines {
		lines[i] = g.Next(nil)
	}
	var ev Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ParseLine(lines[i%len(lines)], &ev); err != nil {
			b.Fatal(err)
		}
	}
}

// aggregatePath is the steady-state serving path per event — parse, hot-set
// intern, key hash and the per-(metric,tagset) Apply — over 1024 generated
// zipf lines, returned warm: every series exists, so what remains is the
// path a long-running aggregator repeats.
func aggregatePath(tb testing.TB) (lines [][]byte, apply func(line []byte)) {
	g := NewGen(GenConfig{Keys: 1024, ZipfS: 1.1})
	lines = make([][]byte, 1024)
	for i := range lines {
		lines[i] = g.Next(nil)
	}
	it := NewInterner(4096)
	hot := NewHotSet(1024)
	agg := NewAgg()
	var ev Event
	apply = func(line []byte) {
		if err := ParseLine(line, &ev); err != nil {
			tb.Fatal(err)
		}
		nameH := Hash64(ev.Name)
		ts := hot.Intern(it, Hash64(ev.Tags), ev.Tags)
		key := KeyHash(nameH, ts.Hash, ev.Type)
		agg.Apply(key, nameH, ts.Hash, ev.Type, ev.Value)
	}
	for _, line := range lines {
		apply(line)
	}
	return lines, apply
}

// TestAggregatePathZeroAlloc holds the whole path BenchmarkStatsdAggregate
// times at 0 allocations, counted per sweep over all 1024 lines, so an
// allocation on any stage for any line shows; TestParseLineZeroAlloc,
// TestHotSetSteadyStateZeroAlloc and TestAggApplySteadyStateZeroAlloc each
// hold one stage on one line.
func TestAggregatePathZeroAlloc(t *testing.T) {
	lines, apply := aggregatePath(t)
	perSweep := testing.AllocsPerRun(4, func() {
		for _, line := range lines {
			apply(line)
		}
	})
	if perSweep != 0 {
		t.Fatalf("the aggregation path allocates %v times per sweep of %d events, want 0", perSweep, len(lines))
	}
}

// BenchmarkStatsdAggregate times aggregatePath per event.
func BenchmarkStatsdAggregate(b *testing.B) {
	lines, apply := aggregatePath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(lines[i%len(lines)])
	}
}
