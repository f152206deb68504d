package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Exporter edge cases: registries with empty histograms and zero-value
// counters must still produce valid, round-trippable exposition text, and
// metric-name validation must accept exactly the Prometheus name grammar.

func TestPrometheusEmptyHistogramRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Histogram("pure_unused_latency_ns", []int64{10, 100}) // no observations
	want := m.Snapshot()

	var buf bytes.Buffer
	if err := want.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "pure_unused_latency_ns_count 0") {
		t.Fatalf("empty histogram missing zero count:\n%s", text)
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Fatalf("empty histogram missing +Inf bucket:\n%s", text)
	}
	got, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestPrometheusZeroValueCountersRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Counter("pure_never_incremented_total")
	m.Gauge("pure_idle_depth")
	want := m.Snapshot()

	var buf bytes.Buffer
	if err := want.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pure_never_incremented_total 0") {
		t.Fatalf("zero counter dropped from exposition:\n%s", buf.String())
	}
	got, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestMetricNameValidity(t *testing.T) {
	m := NewMetrics()
	for _, ok := range []string{"a", "_x", "pure_total", "A9_b:c"} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("valid name %q panicked: %v", ok, r)
				}
			}()
			m.Counter(ok)
		}()
	}
	for _, bad := range []string{"", "9lead", "has space", "dash-ed", "uni·code"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name %q accepted", bad)
				}
			}()
			m.Counter(bad)
		}()
	}
}
