package statsd

import "math"

// Series is the aggregated state of one (metric, tagset, type) key.  All
// four metric types share the struct — the per-event switch stays branchy
// but allocation-free, and a 0-alloc steady state matters more here than a
// few bytes per live series.
type Series struct {
	NameH, TagH uint64
	Type        MetricType

	Count    int64   // events applied
	Sum      float64 // counters: the value; histograms/timers: sum for avg
	Last     float64 // gauges: last write wins (per-link FIFO order)
	Min, Max float64

	// Buckets is a power-of-two magnitude histogram over |value| for the
	// distribution types: bucket i holds values in [2^(i-1), 2^i).
	Buckets [nBuckets]int64
}

// nBuckets is the magnitude-histogram resolution.
const nBuckets = 16

// seriesBlock is the Agg's slab allocator: series are carved from blocks of
// this many so a growing keyspace costs one allocation per block, and the
// steady state (all keys seen) costs none.
const seriesBlock = 256

// Agg is one sub-shard's aggregation state, owned by whichever goroutine
// the task scheduler hands the sub-shard to (sub-shards are disjoint, so a
// stolen chunk touches nothing another chunk touches).
type Agg struct {
	m     map[uint64]*Series
	slab  []Series
	Keys  int
	Count uint64 // events applied

	// Bins accumulates applied checksum contributions per flush bin —
	// the aggregator-side half of the pipeline's zero-sum exactness proof.
	Bins [NBins]uint64
	Sum  uint64 // total applied contribution (cross-checked against markers)
}

// NewAgg returns an empty sub-shard aggregate.
func NewAgg() *Agg { return &Agg{m: make(map[uint64]*Series)} }

// Apply folds one event into the aggregate.  Steady state (series exists)
// performs one map lookup and field updates — no allocation; a new series
// takes a slot from the slab.
func (a *Agg) Apply(key, nameH, tagH uint64, typ MetricType, value float64) {
	s := a.m[key]
	if s == nil {
		if len(a.slab) == 0 {
			a.slab = make([]Series, seriesBlock)
		}
		s = &a.slab[0]
		a.slab = a.slab[1:]
		*s = Series{NameH: nameH, TagH: tagH, Type: typ,
			Min: math.Inf(1), Max: math.Inf(-1)}
		a.m[key] = s
		a.Keys++
	}
	s.Count++
	if value < s.Min {
		s.Min = value
	}
	if value > s.Max {
		s.Max = value
	}
	switch typ {
	case Counter:
		s.Sum += value
	case Gauge:
		s.Last = value
	case Histogram, Timer:
		s.Sum += value
		s.Buckets[bucketOf(value)]++
	}
	a.Count++
	c := Contribution(nameH, tagH, typ, value)
	a.Bins[Bin(key)] += c
	a.Sum += c
}

// bucketOf maps |v| to its power-of-two magnitude bucket.
func bucketOf(v float64) int {
	if v < 0 {
		v = -v
	}
	b := 0
	for v >= 1 && b < nBuckets-1 {
		v /= 2
		b++
	}
	return b
}
