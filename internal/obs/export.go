package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): one TYPE comment per family, histogram buckets
// cumulative with an explicit +Inf bucket plus _sum and _count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Labeled series share one family (the name up to the label block) and
	// must share one TYPE line; snapshots are name-sorted, so all series of a
	// family are contiguous but a set still dedupes `foo` vs `foo{...}`.
	typed := map[string]bool{}
	typeLine := func(series, kind string) {
		fam := seriesFamily(series)
		if !typed[fam] {
			typed[fam] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, kind)
		}
	}
	for _, c := range s.Counters {
		typeLine(c.Name, "counter")
		fmt.Fprintf(bw, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		typeLine(g.Name, "gauge")
		fmt.Fprintf(bw, "%s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		typeLine(h.Name, "histogram")
		// A labeled histogram series (e.g. parsed back from a cluster-merged
		// scrape) folds its labels into each bucket alongside le.
		fam, labels, ok := splitSeries(h.Name)
		if !ok {
			fam, labels = h.Name, nil
		}
		series := func(suffix string, extra ...Label) string {
			return SeriesName(fam+suffix, append(append([]Label(nil), labels...), extra...)...)
		}
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s %d\n", series("_bucket", Label{"le", strconv.FormatInt(b, 10)}), cum)
		}
		cum += h.Counts[len(h.Counts)-1]
		fmt.Fprintf(bw, "%s %d\n", series("_bucket", Label{"le", "+Inf"}), cum)
		fmt.Fprintf(bw, "%s %d\n", series("_sum"), h.Sum)
		fmt.Fprintf(bw, "%s %d\n", series("_count"), h.Count)
	}
	return bw.Flush()
}

// ParsePrometheus parses text previously produced by WritePrometheus (or by
// the cluster monitor's merged endpoint, which adds a node label to every
// series) back into a Snapshot (cumulative buckets are de-accumulated).  It
// understands exactly the subset of the exposition format this package
// emits; it exists so exports can be round-trip tested and snapshots diffed.
func ParsePrometheus(r io.Reader) (Snapshot, error) {
	var s Snapshot
	types := map[string]string{} // family -> counter|gauge|histogram
	hists := map[string]*HistogramSample{}
	var order []string // histogram first-seen order

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) == 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		// Split "series value"; a label value may contain spaces, so cut at
		// the label block's closing brace rather than the first blank.
		var name, valStr string
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			name, valStr = line[:i+1], strings.TrimSpace(line[i+1:])
		} else {
			f := strings.Fields(line)
			if len(f) != 2 {
				return s, fmt.Errorf("obs: unparseable sample line %q", line)
			}
			name, valStr = f[0], f[1]
		}
		if valStr == "" || strings.ContainsRune(valStr, ' ') {
			return s, fmt.Errorf("obs: unparseable sample line %q", line)
		}
		val, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return s, fmt.Errorf("obs: bad value in %q: %v", line, err)
		}
		fam, labels, ok := splitSeries(name)
		if !ok {
			return s, fmt.Errorf("obs: malformed label block in %q", line)
		}
		// Histogram series: fam_bucket{...,le="..."} / fam_sum / fam_count,
		// where fam minus the suffix has TYPE histogram.  Non-le labels fold
		// back into the histogram's series name.
		if base, isB := strings.CutSuffix(fam, "_bucket"); isB && types[base] == "histogram" {
			le, rest := "", make([]Label, 0, len(labels))
			for _, l := range labels {
				if l.Key == "le" {
					le = l.Value
				} else {
					rest = append(rest, l)
				}
			}
			if le == "" {
				return s, fmt.Errorf("obs: bucket sample without le label: %q", line)
			}
			h := histFor(hists, &order, SeriesName(base, rest...))
			if le == "+Inf" {
				h.Counts = append(h.Counts, val)
			} else {
				bound, err := strconv.ParseInt(le, 10, 64)
				if err != nil {
					return s, fmt.Errorf("obs: bad bucket bound in %q: %v", line, err)
				}
				h.Bounds = append(h.Bounds, bound)
				h.Counts = append(h.Counts, val)
			}
			continue
		}
		if base, isS := strings.CutSuffix(fam, "_sum"); isS && types[base] == "histogram" {
			histFor(hists, &order, SeriesName(base, labels...)).Sum = val
			continue
		}
		if base, isC := strings.CutSuffix(fam, "_count"); isC && types[base] == "histogram" {
			histFor(hists, &order, SeriesName(base, labels...)).Count = val
			continue
		}
		switch types[fam] {
		case "counter":
			s.Counters = append(s.Counters, CounterSample{Name: name, Value: val})
		case "gauge":
			s.Gauges = append(s.Gauges, GaugeSample{Name: name, Value: val})
		default:
			return s, fmt.Errorf("obs: sample %q has no preceding TYPE line", name)
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	for _, name := range order {
		h := hists[name]
		// De-accumulate the cumulative bucket counts.
		for i := len(h.Counts) - 1; i > 0; i-- {
			h.Counts[i] -= h.Counts[i-1]
		}
		s.Histograms = append(s.Histograms, *h)
	}
	sort.Slice(s.Histograms, func(a, b int) bool { return s.Histograms[a].Name < s.Histograms[b].Name })
	return s, nil
}

func histFor(hists map[string]*HistogramSample, order *[]string, name string) *HistogramSample {
	h, ok := hists[name]
	if !ok {
		h = &HistogramSample{Name: name}
		hists[name] = h
		*order = append(*order, name)
	}
	return h
}

// chromeEvent is one trace_event record (the subset Perfetto needs).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeMeta struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// WriteChromeTrace writes events in the Chrome trace_event JSON format, one
// process per node and one thread per rank, so a run opens directly in
// chrome://tracing or https://ui.perfetto.dev.  nodeOf maps a rank to its
// node (pid); nil places every rank in node 0.  Spans become complete ("X")
// events; instant events use phase "i" with thread scope.
func WriteChromeTrace(w io.Writer, events []Event, nodeOf func(rank int32) int) error {
	if nodeOf == nil {
		nodeOf = func(int32) int { return 0 }
	}
	type payload struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	p := payload{DisplayTimeUnit: "ns", TraceEvents: make([]any, 0, len(events)+8)}
	seen := map[int32]bool{}
	for _, e := range events {
		if !seen[e.Rank] {
			seen[e.Rank] = true
			p.TraceEvents = append(p.TraceEvents, chromeMeta{
				Name: "thread_name", Phase: "M", PID: nodeOf(e.Rank), TID: int(e.Rank),
				Args: map[string]any{"name": fmt.Sprintf("rank %d", e.Rank)},
			})
		}
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  e.Kind.Category(),
			TS:   float64(e.TS) / 1e3,
			PID:  nodeOf(e.Rank),
			TID:  int(e.Rank),
			Args: map[string]any{"arg": e.Arg},
		}
		if e.Peer >= 0 {
			ce.Args["peer"] = e.Peer
		}
		if e.Dur > 0 {
			ce.Phase = "X"
			ce.Dur = float64(e.Dur) / 1e3
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		p.TraceEvents = append(p.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}
