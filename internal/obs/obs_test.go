package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestRankTraceRecordAndOrder(t *testing.T) {
	tr := NewTrace(2, 8)
	r0 := tr.Rank(0)
	r1 := tr.Rank(1)
	r0.Emit(KSendEager, 1, 64)
	r1.Emit(KRecvEager, 0, 64)
	start := r0.Now()
	r0.EmitSpan(KBarrier, -1, 3, start)

	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("Events len = %d, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events not time-sorted: %v", evs)
		}
	}
	last := evs[len(evs)-1]
	if last.Kind != KBarrier || last.Arg != 3 || last.Peer != -1 {
		t.Fatalf("span event mangled: %+v", last)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
}

func TestRankTraceWraparound(t *testing.T) {
	tr := NewTrace(1, 4)
	rt := tr.Rank(0)
	for i := 0; i < 10; i++ {
		rt.Emit(KSendEager, -1, int64(i))
	}
	if rt.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rt.Len())
	}
	evs := rt.Events()
	want := []int64{6, 7, 8, 9} // newest events win
	for i, e := range evs {
		if e.Arg != want[i] {
			t.Fatalf("retained args = %v at %d, want %v", e.Arg, i, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "" || k.Category() == "" {
			t.Fatalf("kind %d missing name or category", k)
		}
	}
}

func TestMetricsConcurrentAndSnapshot(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("pure_test_total")
	g := m.Gauge("pure_test_depth")
	h := m.Histogram("pure_test_latency_ns", []int64{10, 100, 1000})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Max(int64(w*1000 + i))
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()

	s := m.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 4000 {
		t.Fatalf("counter snapshot wrong: %+v", s.Counters)
	}
	if s.Gauges[0].Value != 3999 {
		t.Fatalf("gauge max = %d, want 3999", s.Gauges[0].Value)
	}
	hs := s.Histograms[0]
	if hs.Count != 4000 {
		t.Fatalf("histogram count = %d, want 4000", hs.Count)
	}
	var total int64
	for _, n := range hs.Counts {
		total += n
	}
	if total != hs.Count {
		t.Fatalf("bucket counts sum %d != count %d", total, hs.Count)
	}
	// 0..9 → ≤10 bucket has 10*4 observations... bounds are inclusive, so
	// v ≤ 10 lands in bucket 0: values 0..10 = 11 per goroutine.
	if hs.Counts[0] != 44 {
		t.Fatalf("bucket[≤10] = %d, want 44", hs.Counts[0])
	}
}

func TestMetricsHandleStability(t *testing.T) {
	m := NewMetrics()
	if m.Counter("a_b") != m.Counter("a_b") {
		t.Fatal("counter handle not stable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	m.Counter("9bad name")
}

func TestPrometheusRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Counter("pure_sends_eager_total").Add(123)
	m.Counter("pure_bytes_sent_total").Add(456789)
	m.Gauge("pure_pbq_depth").Set(7)
	h := m.Histogram("pure_steal_latency_ns", []int64{100, 1000, 10000})
	for _, v := range []int64{50, 150, 1500, 999999, 42} {
		h.Observe(v)
	}
	want := m.Snapshot()

	var buf bytes.Buffer
	if err := want.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\ntext:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTrace(2, 16)
	tr.Rank(0).Emit(KSendEager, 1, 64)
	start := tr.Rank(1).Now()
	tr.Rank(1).EmitSpan(KAllreduce, -1, 1, start)

	var buf bytes.Buffer
	nodeOf := func(rank int32) int { return int(rank) / 2 }
	if err := WriteChromeTrace(&buf, tr.Events(), nodeOf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		phases = append(phases, e["ph"].(string))
	}
	// 2 thread_name metadata records + 1 instant + 1 complete event.
	wantPh := map[string]int{"M": 2, "i": 1, "X": 1}
	gotPh := map[string]int{}
	for _, p := range phases {
		gotPh[p]++
	}
	if !reflect.DeepEqual(wantPh, gotPh) {
		t.Fatalf("phases = %v, want %v", gotPh, wantPh)
	}
}
