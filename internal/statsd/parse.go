// Package statsd implements the protocol layer of the DogStatsD-style
// metrics-aggregation pipeline (ROADMAP item 3): a zero-allocation wire
// parser, a lock-free hash-consed tagset interner with a per-rank hot-set
// cache (per the DataDog tagset RFC: extremely high event volumes over a
// slowly-changing hot set of tagsets), compact batched event frames with a
// hash→string dictionary side channel, per-shard aggregation state, and a
// deterministic zipf-skewed traffic generator.
//
// The Pure application that wires these pieces over ranks and channels
// lives in internal/apps/statsd; this package is runtime-free and fully
// unit-testable (including under the purecheck deterministic scheduler —
// the interner has schedpoint seams).
package statsd

import (
	"encoding/binary"
	"errors"
	"math"
)

// MetricType is the aggregation discipline of one event.
type MetricType uint8

const (
	Counter   MetricType = iota // "c": sum of values
	Gauge                       // "g": last value wins
	Histogram                   // "h": distribution of values
	Timer                       // "ms": distribution of durations
	nMetricTypes
)

func (t MetricType) String() string {
	switch t {
	case Counter:
		return "c"
	case Gauge:
		return "g"
	case Histogram:
		return "h"
	case Timer:
		return "ms"
	}
	return "?"
}

// Event is one parsed DogStatsD datagram.  Name and Tags alias the input
// line — they are valid only until the caller reuses that buffer, which is
// exactly what the ingestion hot loop wants (hash, intern, encode, move on;
// no per-event allocation).
type Event struct {
	Name       []byte // metric name, e.g. "http.request.duration"
	Tags       []byte // raw tag list, e.g. "env:prod,host:web-3"; empty when untagged
	Value      float64
	SampleRate float64 // 1 when the line carries no |@rate section
	Type       MetricType
}

// Parse errors.  All static so the error path does not allocate either
// (malformed traffic is still traffic).
var (
	ErrEmpty      = errors.New("statsd: empty line")
	ErrNoValue    = errors.New("statsd: missing ':' value separator")
	ErrNoType     = errors.New("statsd: missing '|' type separator")
	ErrBadType    = errors.New("statsd: unknown metric type")
	ErrBadValue   = errors.New("statsd: malformed value")
	ErrBadRate    = errors.New("statsd: malformed sample rate")
	ErrBadSection = errors.New("statsd: unknown '|' section")
)

// ParseLine parses one DogStatsD line
//
//	name:value|type[|@rate][|#tag1:v1,tag2:v2]
//
// into ev.  It never allocates and never panics, whatever the input (the
// FuzzStatsdParse target holds it to that).
func ParseLine(line []byte, ev *Event) error {
	if len(line) == 0 {
		return ErrEmpty
	}
	colon := indexByte(line, ':')
	if colon <= 0 {
		return ErrNoValue
	}
	ev.Name = line[:colon]
	rest := line[colon+1:]
	pipe := indexByte(rest, '|')
	if pipe < 0 {
		return ErrNoType
	}
	val, ok := parseFloat(rest[:pipe])
	if !ok {
		return ErrBadValue
	}
	ev.Value = val
	rest = rest[pipe+1:]

	// Type token runs to the next '|' or end of line.
	end := indexByte(rest, '|')
	typ := rest
	if end >= 0 {
		typ = rest[:end]
		rest = rest[end+1:]
	} else {
		rest = nil
	}
	switch {
	case len(typ) == 1 && typ[0] == 'c':
		ev.Type = Counter
	case len(typ) == 1 && typ[0] == 'g':
		ev.Type = Gauge
	case len(typ) == 1 && typ[0] == 'h':
		ev.Type = Histogram
	case len(typ) == 2 && typ[0] == 'm' && typ[1] == 's':
		ev.Type = Timer
	default:
		return ErrBadType
	}

	ev.Tags = nil
	ev.SampleRate = 1
	for len(rest) > 0 {
		sec := rest
		if end := indexByte(rest, '|'); end >= 0 {
			sec = rest[:end]
			rest = rest[end+1:]
		} else {
			rest = nil
		}
		if len(sec) == 0 {
			return ErrBadSection
		}
		switch sec[0] {
		case '#':
			ev.Tags = sec[1:]
		case '@':
			r, ok := parseFloat(sec[1:])
			if !ok || r <= 0 || r > 1 {
				return ErrBadRate
			}
			ev.SampleRate = r
		default:
			return ErrBadSection
		}
	}
	return nil
}

// indexByte is bytes.IndexByte without the import (the compiler lowers both
// to the same internal/bytealg call; keeping the package dependency-light).
func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// parseFloat parses the value grammar DogStatsD traffic actually uses —
// [+-]digits[.digits] — without the []byte→string conversion that
// strconv.ParseFloat would force (which allocates).  Exotic spellings
// (exponents, inf/nan, >18 significant digits) are rejected as malformed;
// the generator never emits them and real agents treat them as bad lines.
func parseFloat(b []byte) (float64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	switch b[0] {
	case '-':
		neg, b = true, b[1:]
	case '+':
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var mant uint64
	digits := 0
	i := 0
	for ; i < len(b) && b[i] != '.'; i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		mant = mant*10 + uint64(d)
		if digits++; digits > 18 {
			return 0, false
		}
	}
	frac := 0
	if i < len(b) { // b[i] == '.'
		i++
		if i == len(b) {
			return 0, false
		}
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				return 0, false
			}
			mant = mant*10 + uint64(d)
			frac++
			if digits++; digits > 18 {
				return 0, false
			}
		}
	}
	v := float64(mant)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, true
}

var pow10 = [19]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// Hash64 hashes b with a wyhash-style multiply–xor over 8-byte lanes.  It
// is the pipeline's single hash identity: metric names and tagsets hash
// through it on ingestion, and everything downstream — interning, sharding,
// aggregation keys, flush checksum bins — works on the 64-bit hashes alone
// (the RFC's "hash-based aggregation").
func Hash64(b []byte) uint64 {
	h := 0x9e3779b97f4a7c15 ^ uint64(len(b))*0xff51afd7ed558ccd
	for len(b) >= 8 {
		h = (h ^ mix64(binary.LittleEndian.Uint64(b))) * 0x2545f4914f6cdd1d
		b = b[8:]
	}
	if len(b) > 0 {
		var k uint64
		for i := len(b) - 1; i >= 0; i-- {
			k = k<<8 | uint64(b[i])
		}
		h = (h ^ mix64(k)) * 0x2545f4914f6cdd1d
	}
	return mix64(h)
}

// mix64 is splitmix64's finalizer: a cheap full-avalanche permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyHash combines a metric-name hash, a tagset hash and the metric type
// into the 64-bit aggregation key.  The rotation keeps name↔tagset swaps
// from colliding; the final mix spreads the key over shard and sub-shard
// bit ranges.
func KeyHash(nameH, tagH uint64, typ MetricType) uint64 {
	return mix64(nameH ^ (tagH<<17 | tagH>>47) ^ uint64(typ)*0x9e3779b97f4a7c15)
}

// Contribution is one event's flush-checksum contribution: a full-avalanche
// digest of exactly the fields the aggregator applies.  Contributions are
// summed with wraparound into per-bin totals; because addition commutes,
// any delivery order (and any sharding) of the same event multiset yields
// the same totals, so ingesters and aggregators can prove end-to-end
// exactness with a zero-sum test (see internal/apps/statsd).
func Contribution(nameH, tagH uint64, typ MetricType, value float64) uint64 {
	return mix64(nameH + (tagH<<23 | tagH>>41) + uint64(typ)*0xff51afd7ed558ccd +
		math.Float64bits(value)*0x2545f4914f6cdd1d)
}

// NBins is the flush-vector checksum bin count.  A key's bin is keyed off
// KeyHash so every (metric, tagset, type) series lands in a stable bin;
// 256 bins × 8 bytes on each of the verify and snapshot halves pushes the
// flush vector past the runtime's 2 KiB SPTD bound, routing the rollup
// through the partitioned reducer — the intended path for production-sized snapshots.
const NBins = 256

// Bin maps an aggregation key to its flush-vector bin.
func Bin(key uint64) int { return int(key >> 56) }
