package cluster

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// wellFormedSample is one exposition sample line as the obs exporter writes
// it: a metric name, an optional non-empty label set, one space, a number.
var wellFormedSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
		`(?:\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*)\})?` +
		` ([-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$`)

// expositionLines splits a body the way the merge reads it: on '\n', one
// trailing '\r' dropped, empty lines skipped.
func expositionLines(body []byte) []string {
	var out []string
	for _, l := range strings.Split(string(body), "\n") {
		if l = strings.TrimSuffix(l, "\r"); l != "" {
			out = append(out, l)
		}
	}
	return out
}

// FuzzMergeExposition feeds two nodes' /metrics bodies through the merge:
// it must never panic, must emit each distinct comment line once, must emit
// one sample line per input sample line in order, and must give every
// well-formed sample its node="<id>" label first with its other labels and
// its value unchanged.
func FuzzMergeExposition(f *testing.F) {
	m := obs.NewMetrics()
	m.Counter("pure_sends_eager_total").Add(12)
	m.Gauge("pure_pbq_depth_max").Set(3)
	m.Histogram("pure_wait_ns", []int64{100, 1000}).Observe(250)
	m.Collect(func(s *obs.Sink) {
		s.Counter(obs.SeriesName("pure_link_frames_sent_total", obs.Label{Key: "peer", Value: "1"}), 7)
		s.Gauge(obs.SeriesName("pure_link_up", obs.Label{Key: "peer", Value: `a "q" \ v`}), 1)
	})
	var snap bytes.Buffer
	if err := m.Snapshot().WritePrometheus(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes(), snap.Bytes(), uint16(0), uint16(1))
	f.Add(snap.Bytes(), []byte("x 1\r\n\n# TYPE x counter\nx{} 2\nbad\n"), uint16(3), uint16(12))

	f.Fuzz(func(t *testing.T, a, b []byte, na, nb uint16) {
		if len(a) >= 1<<20 || len(b) >= 1<<20 {
			t.Skip("a line may exceed the merge's 1 MiB scanner limit")
		}
		in := []scrape{{node: int(na), body: a}, {node: int(nb), body: b}}
		var out bytes.Buffer
		mergeExposition(&out, in)

		comments := map[string]int{}
		var samples []string
		for _, l := range strings.SplitAfter(out.String(), "\n") {
			if l = strings.TrimSuffix(l, "\n"); l == "" {
				continue
			}
			if strings.HasPrefix(l, "#") {
				comments[l]++
			} else {
				samples = append(samples, l)
			}
		}
		want := map[string]bool{}
		k := 0
		for _, s := range in {
			for _, l := range expositionLines(s.body) {
				if strings.HasPrefix(l, "#") {
					want[l] = true
					continue
				}
				if k >= len(samples) {
					t.Fatalf("sample %q lost: output has %d sample lines", l, len(samples))
				}
				got := samples[k]
				k++
				p := wellFormedSample.FindStringSubmatch(l)
				if p == nil {
					continue
				}
				node := `node="` + strconv.Itoa(s.node) + `"`
				labels := node
				if p[2] != "" {
					labels += "," + p[2]
				}
				if exp := p[1] + "{" + labels + "} " + p[3]; got != exp {
					t.Fatalf("node %d sample %q came out as %q, want %q", s.node, l, got, exp)
				}
			}
		}
		if k != len(samples) {
			t.Fatalf("%d sample lines in, %d out", k, len(samples))
		}
		for l, n := range comments {
			if n != 1 || !want[l] {
				t.Fatalf("comment line %q emitted %d times (in the input: %v)", l, n, want[l])
			}
		}
		if len(comments) != len(want) {
			t.Fatalf("%d distinct comment lines in, %d out", len(want), len(comments))
		}
	})
}
