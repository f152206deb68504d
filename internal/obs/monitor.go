package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"
)

// The live runtime monitor: an HTTP introspection surface that turns a
// running (or hung) Pure program into something inspectable from outside —
// a Prometheus scrape of the metrics registry, a JSON view of every rank's
// current wait state from the runtime's wait registry, and the standard
// net/http/pprof handlers for goroutine/CPU/heap profiles.  The runtime
// serves it when Config.MonitorAddr is set; tests mount Handler() directly
// on an httptest server.

// WaitState is the JSON rendering of one blocked rank's wait record.
type WaitState struct {
	// Kind is the wait-kind name ("p2p-recv", "collective", "rma-fence", ...).
	Kind string `json:"kind"`
	// Peer is the global rank the wait is directed at, -1 when none.
	Peer int `json:"peer"`
	// Tag and Comm are the channel coordinates (p2p kinds).
	Tag  int    `json:"tag"`
	Comm uint64 `json:"comm"`
	// Seq is the SPTD round / rendezvous ticket / link sequence, if any.
	Seq uint64 `json:"seq,omitempty"`
	// Op is the collective op name ("barrier", "allreduce", ...), if any.
	Op string `json:"op,omitempty"`
	// BlockedNs is how long the rank has been in this wait.
	BlockedNs int64 `json:"blocked_ns"`
}

// RankState is one rank's entry in the monitor's /ranks view.
type RankState struct {
	Rank int `json:"rank"`
	// State is "running" (in application code, or in a wait that has not
	// proven slow yet), "blocked" (published a wait record), "done", or
	// "unwound" (done, but by runtime poisoning).
	State string `json:"state"`
	// Wait describes the blocking wait when State is "blocked".
	Wait *WaitState `json:"wait,omitempty"`
}

// Monitor serves the live introspection endpoints over one metrics registry
// and one rank-state source.  Both are optional: a nil registry serves an
// empty (but valid) scrape, a nil source serves an empty rank list.
type Monitor struct {
	metrics *Metrics
	ranks   func() []RankState
	links   func() []LinkState
	started time.Time
	scrapes *Counter
}

// SetLinks installs the transport link-state source behind /links.  A nil
// source (the default; also any non-transport run) serves an empty list.
func (mon *Monitor) SetLinks(f func() []LinkState) { mon.links = f }

// NewMonitor builds a monitor over the given registry (nil creates a private
// one, so /metrics always serves valid exposition text) and rank-state
// source.  The monitor registers a pure_monitor_scrapes_total counter on the
// registry it serves.
func NewMonitor(m *Metrics, ranks func() []RankState) *Monitor {
	if m == nil {
		m = NewMetrics()
	}
	return &Monitor{
		metrics: m,
		ranks:   ranks,
		started: time.Now(),
		scrapes: m.Counter("pure_monitor_scrapes_total"),
	}
}

// Handler returns the monitor's HTTP handler:
//
//	/            plain-text index of the endpoints
//	/metrics     Prometheus text exposition of the metrics registry
//	/ranks       JSON rank states from the wait registry
//	/debug/pprof the standard runtime profiles
func (mon *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", mon.serveIndex)
	mux.HandleFunc("/metrics", mon.serveMetrics)
	mux.HandleFunc("/ranks", mon.serveRanks)
	mux.HandleFunc("/links", mon.serveLinks)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (mon *Monitor) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "pure runtime monitor (up %v)\n\n", time.Since(mon.started).Round(time.Second))
	fmt.Fprintln(w, "/metrics      Prometheus scrape of the runtime metrics")
	fmt.Fprintln(w, "/ranks        JSON wait state of every rank")
	fmt.Fprintln(w, "/links        JSON per-peer transport link telemetry")
	fmt.Fprintln(w, "/debug/pprof  goroutine / CPU / heap profiles")
}

func (mon *Monitor) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	mon.scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := mon.metrics.Snapshot().WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is log nothing and drop the conn.
		return
	}
}

// RanksView is the /ranks response body.
type RanksView struct {
	// Time is the wall-clock scrape time (RFC 3339 with nanoseconds).
	Time string `json:"time"`
	// Ranks holds every rank's state, ordered by rank id.
	Ranks []RankState `json:"ranks"`
}

func (mon *Monitor) serveRanks(w http.ResponseWriter, _ *http.Request) {
	view := RanksView{Time: time.Now().Format(time.RFC3339Nano)}
	if mon.ranks != nil {
		view.Ranks = mon.ranks()
	}
	if view.Ranks == nil {
		view.Ranks = []RankState{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view)
}

// LinksView is the /links response body.
type LinksView struct {
	Time  string      `json:"time"`
	Links []LinkState `json:"links"`
}

func (mon *Monitor) serveLinks(w http.ResponseWriter, _ *http.Request) {
	view := LinksView{Time: time.Now().Format(time.RFC3339Nano)}
	if mon.links != nil {
		view.Links = mon.links()
	}
	if view.Links == nil {
		view.Links = []LinkState{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view)
}
