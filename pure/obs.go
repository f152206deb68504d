package pure

import (
	"io"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// Observability surface: re-exports of the internal/obs tracer and metrics
// registry plus Report conveniences.  See docs/OBSERVABILITY.md for usage.

// Trace is a low-overhead event tracer: one single-writer ring buffer of
// fixed-size event records per rank.  Pass one via Config.Trace.
type Trace = obs.Trace

// Event is one trace record; see obs.Event for field semantics.
type Event = obs.Event

// EventKind identifies what an Event records (sends and receives by protocol
// path, queue stalls, rendezvous handoffs, collectives, steals, tasks).
type EventKind = obs.Kind

// Metrics is a registry of named counters, gauges and histograms that can be
// snapshotted at any time, including mid-run.  Pass one via Config.Metrics.
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of a Metrics registry; it exports
// to the Prometheus text format (WritePrometheus).
type MetricsSnapshot = obs.Snapshot

// NewTrace builds a tracer for nranks ranks with perRankEvents ring slots per
// rank (0 selects the default, 65536 events ≈ 2.5 MiB per rank).  The trace
// retains the newest events when a ring wraps; Trace.Dropped reports losses.
func NewTrace(nranks, perRankEvents int) *Trace { return obs.NewTrace(nranks, perRankEvents) }

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// ParsePrometheus parses the Prometheus text format written by
// MetricsSnapshot.WritePrometheus back into a snapshot (round-trip testing,
// scrape post-processing).
func ParsePrometheus(r io.Reader) (MetricsSnapshot, error) { return obs.ParsePrometheus(r) }

// Timeline returns the run's events merged across ranks and sorted by start
// time, or nil when the run was not traced.  Valid once RunWithReport has
// returned (the rings are single-writer and unsynchronized while ranks run).
func (rep *Report) Timeline() []Event {
	if rep.Trace == nil {
		return nil
	}
	return rep.Trace.Events()
}

// WriteChromeTrace writes the run's timeline in the Chrome trace_event JSON
// format, loadable in chrome://tracing and https://ui.perfetto.dev: nodes
// become processes, ranks become threads, spans become complete events.  It
// is a no-op (and returns nil) when the run was not traced.
func (rep *Report) WriteChromeTrace(w io.Writer) error {
	if rep.Trace == nil {
		return nil
	}
	return obs.WriteChromeTrace(w, rep.Trace.Events(), rep.nodeOf)
}

func (rep *Report) nodeOf(rank int32) int {
	if int(rank) < len(rep.PerRank) {
		return rep.PerRank[rank].Node
	}
	return 0
}

// Analysis is the derived trace-analytics report: message matching per
// protocol path with latency histograms, unmatched-operation listing,
// collective skew per round with straggler ranking, PureBufferQueue
// backpressure hot pairs, per-rank time/work breakdown, and a critical-path
// estimate.  See internal/obs/analyze for the field-level documentation; the
// struct marshals to JSON and renders with WriteText.
type Analysis = analyze.Analysis

// Analyze runs the trace analytics over the run's timeline, using the
// report's rank-to-node placement for per-node collective-round grouping.
// It returns nil when the run was not traced.
func (rep *Report) Analyze() *Analysis {
	if rep.Trace == nil {
		return nil
	}
	a := analyze.Run(rep.Trace.Events(), rep.Trace.NRanks(), analyze.Options{NodeOf: rep.nodeOf})
	a.Dropped = rep.Trace.Dropped()
	return a
}

// TraceDump is a trace read back from its binary dump (ReadTraceBin): the
// recorded events plus the rank count and ring-drop count at dump time.
type TraceDump = obs.TraceDump

// WriteTraceBin dumps the run's trace in the versioned binary format that
// cmd/puretrace consumes (and ReadTraceBin parses), so traces survive the
// recording process and can be analyzed elsewhere.  It is a no-op (and
// returns nil) when the run was not traced.
func (rep *Report) WriteTraceBin(w io.Writer) error {
	if rep.Trace == nil {
		return nil
	}
	return obs.WriteTraceBin(w, rep.Trace)
}

// ReadTraceBin parses a binary trace dump written by Report.WriteTraceBin
// (or obs.WriteTraceBin).
func ReadTraceBin(r io.Reader) (*TraceDump, error) { return obs.ReadTraceBin(r) }

// AnalyzeDump runs the trace analytics over a dump read back with
// ReadTraceBin.  Node placement is not recorded in the dump, so collective
// rounds are grouped as if all ranks share one node (exact for single-node
// runs, an approximation otherwise).
func AnalyzeDump(d *TraceDump) *Analysis {
	a := analyze.Run(d.Events, d.NRanks, analyze.Options{})
	a.Dropped = d.Dropped
	return a
}
