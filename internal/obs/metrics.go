package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.  All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
	_ [56]byte // keep adjacent registry entries off one cacheline
}

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. a sampled queue depth).
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Max raises the gauge to v if v is larger (lock-free high-water mark).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into buckets bounded above by fixed upper
// bounds, plus an implicit +Inf bucket, and tracks the observation sum —
// the Prometheus histogram model.
type Histogram struct {
	bounds []int64 // ascending upper bounds (inclusive)
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1) // i == len(bounds) is the +Inf bucket
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the total observation count.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// LatencyBuckets is the default bucket ladder for nanosecond latencies:
// 100 ns to ~100 ms in half-decade steps.
var LatencyBuckets = []int64{
	100, 316, 1_000, 3_160, 10_000, 31_600, 100_000,
	316_000, 1_000_000, 3_160_000, 10_000_000, 31_600_000, 100_000_000,
}

// Metrics is a named registry of counters, gauges and histograms.  Handles
// are created on first use and stable for the registry's lifetime; resolve
// them once outside hot paths.  Metric names must match the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
//
// A registry also has a read side: collectors (Collect) that report counts
// kept elsewhere — the runtime's rank-private cells, a transport's link
// counters — at the moment a snapshot is taken, so the writer pays nothing
// for being observable and no copy of the count can go stale.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Sink)
}

// Sink is what a collector reports into during one Snapshot.  Names are
// canonical series strings: a bare metric name, or one built by SeriesName.
type Sink struct {
	counters, gauges map[string]int64
}

// Counter adds v to the snapshot's sample of the named counter.  Same-named
// counters add up — across collectors, and with a registry counter of that
// name — so several runs, or several nodes of one process, can serve one
// registry.
func (s *Sink) Counter(name string, v int64) { s.counters[name] += v }

// Gauge sets the snapshot's sample of the named gauge.
func (s *Sink) Gauge(name string, v int64) { s.gauges[name] = v }

// Collect registers a collector: f runs inside every Snapshot, on the
// snapshotting goroutine, for the rest of the registry's lifetime.  It must
// be safe to call at any time from any goroutine.
func (m *Metrics) Collect(f func(*Sink)) {
	m.mu.Lock()
	m.collectors = append(m.collectors, f)
	m.mu.Unlock()
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func checkName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// Counter returns the named counter, creating it if needed.
func (m *Metrics) Counter(name string) *Counter {
	checkName(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (m *Metrics) Gauge(name string) *Gauge {
	checkName(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds if needed (nil bounds mean LatencyBuckets).  Bounds
// are fixed at creation; later calls ignore the argument.
func (m *Metrics) Histogram(name string, bounds []int64) *Histogram {
	checkName(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		if !sort.SliceIsSorted(bounds, func(a, b int) bool { return bounds[a] < bounds[b] }) {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		m.hists[name] = h
	}
	return h
}

// CounterSample is one counter's snapshot.
type CounterSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSample is one gauge's snapshot.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSample is one histogram's snapshot.  Counts[i] is the number of
// observations ≤ Bounds[i] (non-cumulative, per bucket); the final entry of
// Counts is the +Inf bucket.
type HistogramSample struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, ordered by name.  Taking
// one is safe at any time, including while ranks are still running; each
// individual value is atomically read, though the set is not a consistent
// cut across metrics.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters"`
	Gauges     []GaugeSample     `json:"gauges"`
	Histograms []HistogramSample `json:"histograms"`
}

// Snapshot captures the registry's current values and what its collectors
// report.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	sink := Sink{counters: map[string]int64{}, gauges: map[string]int64{}}
	m.mu.Lock()
	for name, c := range m.counters {
		sink.counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		sink.gauges[name] = g.Value()
	}
	for name, h := range m.hists {
		hs := HistogramSample{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	collectors := m.collectors
	m.mu.Unlock()
	// Collectors run unlocked: they are the owner's code and take its locks.
	for _, f := range collectors {
		f(&sink)
	}
	for name, v := range sink.counters {
		s.Counters = append(s.Counters, CounterSample{Name: name, Value: v})
	}
	for name, v := range sink.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: name, Value: v})
	}
	sort.Slice(s.Counters, func(a, b int) bool { return s.Counters[a].Name < s.Counters[b].Name })
	sort.Slice(s.Gauges, func(a, b int) bool { return s.Gauges[a].Name < s.Gauges[b].Name })
	sort.Slice(s.Histograms, func(a, b int) bool { return s.Histograms[a].Name < s.Histograms[b].Name })
	return s
}
