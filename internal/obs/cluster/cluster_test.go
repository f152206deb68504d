package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fakeNode builds one per-node monitor the way the runtime does: a registry
// with plain and peer-labeled series, a rank-state source, and a link-state
// source.
func fakeNode(node int, peers []int) *obs.Monitor {
	reg := obs.NewMetrics()
	reg.Counter("pure_sends_eager_total").Add(int64(10 * (node + 1)))
	reg.Collect(func(s *obs.Sink) {
		for _, p := range peers {
			l := obs.Label{Key: "peer", Value: itoa(p)}
			s.Counter(obs.SeriesName("pure_link_frames_sent_total", l), int64(100*node+p))
			s.Gauge(obs.SeriesName("pure_link_up", l), 1)
		}
	})
	mon := obs.NewMonitor(reg, func() []obs.RankState {
		return []obs.RankState{{Rank: 2 * node, State: "running"}, {Rank: 2*node + 1, State: "done"}}
	})
	mon.SetLinks(func() []obs.LinkState {
		out := make([]obs.LinkState, 0, len(peers))
		for _, p := range peers {
			out = append(out, obs.LinkState{Peer: p, Up: true, EverUp: true, FramesSent: int64(100*node + p)})
		}
		return out
	})
	return mon
}

func itoa(v int) string {
	return string(rune('0' + v))
}

// TestAggregatorTwoNodeRoundTrip serves two fake node monitors, aggregates
// them, and checks the merged scrape parses back with per-node labels and
// the /cluster view carries both nodes' ranks and links.
func TestAggregatorTwoNodeRoundTrip(t *testing.T) {
	s0 := httptest.NewServer(fakeNode(0, []int{1}).Handler())
	defer s0.Close()
	s1 := httptest.NewServer(fakeNode(1, []int{0}).Handler())
	defer s1.Close()

	ag := New([]Node{
		{Node: 1, Addr: strings.TrimPrefix(s1.URL, "http://")},
		{Node: 0, Addr: strings.TrimPrefix(s0.URL, "http://")},
	}, 0)
	srv := httptest.NewServer(ag.Handler())
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	// The merged exposition must round-trip through the strict parser: valid
	// names, valid (node-augmented) label sets, one TYPE line per family.
	snap, err := obs.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("merged scrape does not parse: %v\nbody:\n%s", err, body)
	}
	want := map[string]int64{
		`pure_cluster_node_up{node="0"}`:                 1,
		`pure_cluster_node_up{node="1"}`:                 1,
		`pure_sends_eager_total{node="0"}`:               10,
		`pure_sends_eager_total{node="1"}`:               20,
		`pure_link_frames_sent_total{node="0",peer="1"}`: 1,
		`pure_link_frames_sent_total{node="1",peer="0"}`: 100,
		`pure_link_up{node="0",peer="1"}`:                1,
	}
	got := map[string]int64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("merged scrape: %s = %d, want %d", name, got[name], v)
		}
	}
	if n := strings.Count(body, "# TYPE pure_sends_eager_total counter"); n != 1 {
		t.Errorf("TYPE line for shared family emitted %d times, want 1", n)
	}

	var view ClusterView
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/cluster")), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != 2 {
		t.Fatalf("cluster view has %d nodes, want 2", len(view.Nodes))
	}
	for i, ns := range view.Nodes {
		if ns.Node != i || !ns.Alive {
			t.Fatalf("node entry %d = %+v, want node %d alive", i, ns, i)
		}
		if len(ns.Ranks) != 2 || len(ns.Links) != 1 {
			t.Fatalf("node %d: %d ranks, %d links; want 2/1", i, len(ns.Ranks), len(ns.Links))
		}
		if !ns.Links[0].Up {
			t.Fatalf("node %d link not up: %+v", i, ns.Links[0])
		}
	}
}

// TestAggregatorReportsDeadNode points one entry at a closed listener: the
// merged scrape must still succeed, with node_up 0 and alive=false.
func TestAggregatorReportsDeadNode(t *testing.T) {
	s0 := httptest.NewServer(fakeNode(0, nil).Handler())
	defer s0.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close() // connection refused from now on

	ag := New([]Node{
		{Node: 0, Addr: strings.TrimPrefix(s0.URL, "http://")},
		{Node: 1, Addr: deadAddr},
	}, 0)
	srv := httptest.NewServer(ag.Handler())
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, `pure_cluster_node_up{node="0"} 1`) ||
		!strings.Contains(body, `pure_cluster_node_up{node="1"} 0`) {
		t.Fatalf("node_up gauges wrong:\n%s", body)
	}
	if _, err := obs.ParsePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("merged scrape with dead node does not parse: %v", err)
	}

	var view ClusterView
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/cluster")), &view); err != nil {
		t.Fatal(err)
	}
	if !view.Nodes[0].Alive {
		t.Fatal("live node reported dead")
	}
	if view.Nodes[1].Alive || view.Nodes[1].Err == "" {
		t.Fatalf("dead node entry = %+v, want alive=false with an error", view.Nodes[1])
	}
}

func TestTagNode(t *testing.T) {
	cases := [][2]string{
		{`foo_total 42`, `foo_total{node="3"} 42`},
		{`foo_total{peer="1"} 42`, `foo_total{node="3",peer="1"} 42`},
		{`h_bucket{le="+Inf"} 7`, `h_bucket{node="3",le="+Inf"} 7`},
		// Label values may contain spaces and escaped quotes; only the first
		// '{' matters.
		{`g{k="a b\"c"} 1`, `g{node="3",k="a b\"c"} 1`},
	}
	for _, c := range cases {
		if got := tagNode(c[0], 3); got != c[1] {
			t.Errorf("tagNode(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
