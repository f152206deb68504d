package obs

import (
	"sort"
	"strings"
	"testing"
)

func TestSeriesNameCanonicalizes(t *testing.T) {
	cases := []struct {
		base   string
		labels []Label
		want   string
	}{
		{"plain_total", nil, "plain_total"},
		{"x", []Label{{"peer", "3"}}, `x{peer="3"}`},
		// Keys sort, whatever order the caller used.
		{"x", []Label{{"zz", "1"}, {"aa", "2"}}, `x{aa="2",zz="1"}`},
		// Values get the Prometheus escapes: backslash, quote, newline.
		{"x", []Label{{"k", `a\b`}}, `x{k="a\\b"}`},
		{"x", []Label{{"k", `say "hi"`}}, `x{k="say \"hi\""}`},
		{"x", []Label{{"k", "two\nlines"}}, `x{k="two\nlines"}`},
		// Empty values and spaces are legal.
		{"x", []Label{{"k", ""}}, `x{k=""}`},
		{"x", []Label{{"k", "a b"}}, `x{k="a b"}`},
	}
	for _, c := range cases {
		if got := SeriesName(c.base, c.labels...); got != c.want {
			t.Errorf("SeriesName(%q, %v) = %q, want %q", c.base, c.labels, got, c.want)
		}
	}
}

func TestSeriesNamePanicsOnBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad base", func() { SeriesName("has space", Label{"k", "v"}) })
	mustPanic("empty key", func() { SeriesName("x", Label{"", "v"}) })
	mustPanic("key with dash", func() { SeriesName("x", Label{"bad-key", "v"}) })
	mustPanic("key starting with digit", func() { SeriesName("x", Label{"9k", "v"}) })
}

func TestSplitSeriesRoundTrip(t *testing.T) {
	values := []string{"3", "", "a b", `a\b`, `say "hi"`, "two\nlines", `tricky\`, `{brace,comma}`}
	for _, v := range values {
		series := SeriesName("fam_total", Label{"peer", v}, Label{"zone", "z1"})
		fam, labels, ok := splitSeries(series)
		if !ok || fam != "fam_total" {
			t.Fatalf("splitSeries(%q) = %q, %v, %v", series, fam, labels, ok)
		}
		if len(labels) != 2 || labels[0] != (Label{"peer", v}) || labels[1] != (Label{"zone", "z1"}) {
			t.Fatalf("splitSeries(%q) labels = %v, want peer=%q zone=z1", series, labels, v)
		}
	}
	for _, bad := range []string{`x{`, `x{k=}`, `x{k="v}`, `x{k="v" extra}`, `x{k="a"b="c"}`} {
		if _, _, ok := splitSeries(bad); ok {
			t.Errorf("splitSeries(%q) accepted malformed input", bad)
		}
	}
	if fam, labels, ok := splitSeries("bare_name"); !ok || fam != "bare_name" || labels != nil {
		t.Errorf("splitSeries(bare_name) = %q, %v, %v", fam, labels, ok)
	}
}

// TestLabeledMetricsExportRoundTrip pushes labeled counters and gauges with
// awkward label values through WritePrometheus and back through
// ParsePrometheus, checking values, family typing, and TYPE dedup.
func TestLabeledMetricsExportRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.CounterL("pure_link_frames_sent_total", Label{"peer", "0"}).Add(7)
	m.CounterL("pure_link_frames_sent_total", Label{"peer", "1"}).Add(11)
	m.Counter("pure_plain_total").Add(3)
	m.GaugeL("pure_link_up", Label{"peer", "0"}).Set(1)
	m.GaugeL("weird", Label{"k", `a "quoted\" value` + "\nline2"}).Set(-5)

	var sb strings.Builder
	if err := m.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if n := strings.Count(text, "# TYPE pure_link_frames_sent_total counter"); n != 1 {
		t.Fatalf("TYPE emitted %d times for the labeled family, want 1:\n%s", n, text)
	}
	back, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, text)
	}
	counters := map[string]int64{}
	for _, c := range back.Counters {
		counters[c.Name] = c.Value
	}
	if counters[`pure_link_frames_sent_total{peer="0"}`] != 7 ||
		counters[`pure_link_frames_sent_total{peer="1"}`] != 11 ||
		counters["pure_plain_total"] != 3 {
		t.Fatalf("counters did not round-trip: %v", counters)
	}
	gauges := map[string]int64{}
	for _, g := range back.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges[`pure_link_up{peer="0"}`] != 1 {
		t.Fatalf("labeled gauge did not round-trip: %v", gauges)
	}
	wantWeird := SeriesName("weird", Label{"k", `a "quoted\" value` + "\nline2"})
	if gauges[wantWeird] != -5 {
		t.Fatalf("gauge with escaped value did not round-trip: %v", gauges)
	}
}

// TestCounterLHandleStability checks that the same (base, labels) always
// resolves to the same underlying counter, independent of label order.
func TestCounterLHandleStability(t *testing.T) {
	m := NewMetrics()
	a := m.CounterL("x_total", Label{"a", "1"}, Label{"b", "2"})
	b := m.CounterL("x_total", Label{"b", "2"}, Label{"a", "1"})
	if a != b {
		t.Fatal("label order produced distinct counter handles")
	}
	a.Add(5)
	if b.Value() != 5 {
		t.Fatal("handles disagree on value")
	}
	if g1, g2 := m.GaugeL("y", Label{"k", "v"}), m.GaugeL("y", Label{"k", "v"}); g1 != g2 {
		t.Fatal("GaugeL returned distinct handles for the same series")
	}
}

// TestCollectorsReadAtSnapshotTime checks the registry's read side: a
// collector is evaluated by every Snapshot (so repeated snapshots serve the
// source's current value and never double-count), same-named counters add
// up across collectors and with a registry counter, and the link table
// exports a counter per peer and summed.
func TestCollectorsReadAtSnapshotTime(t *testing.T) {
	m := NewMetrics()
	m.Counter("shared_total").Add(1)
	var src int64 = 10
	for i := 0; i < 2; i++ {
		m.Collect(func(s *Sink) { s.Counter("shared_total", src) })
	}
	links := []LinkState{{Peer: 1, FramesSent: 5, Up: true}, {Peer: 2, FramesSent: 7, Dead: true}}
	m.Collect(func(s *Sink) { ReportLinks(s, links) })

	want := map[string]int64{
		"shared_total": 21, `pure_link_frames_sent_total{peer="1"}`: 5, `pure_link_frames_sent_total{peer="2"}`: 7,
		"pure_tp_frames_sent_total": 12, "pure_tp_dead_peers_total": 1, `pure_link_up{peer="1"}`: 1, `pure_link_up{peer="2"}`: 0,
	}
	check := func() {
		t.Helper()
		snap := m.Snapshot()
		got := map[string]int64{}
		for _, c := range snap.Counters {
			got[c.Name] = c.Value
		}
		for _, g := range snap.Gauges {
			got[g.Name] = g.Value
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s = %d, want %d", name, got[name], v)
			}
		}
		if !sort.SliceIsSorted(snap.Counters, func(a, b int) bool { return snap.Counters[a].Name < snap.Counters[b].Name }) {
			t.Error("collected counters not merged into name order")
		}
	}
	check()
	check() // a second snapshot reads again, it does not accumulate
	src, links[0].FramesSent = 25, 6
	want["shared_total"], want[`pure_link_frames_sent_total{peer="1"}`], want["pure_tp_frames_sent_total"] = 51, 6, 13
	check()
}
