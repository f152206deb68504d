// Package cluster aggregates the per-node runtime monitors of a
// multi-process Pure job into one cluster-wide observability endpoint.
//
// Every node of a launched job serves its own obs.Monitor (Prometheus
// /metrics, JSON /ranks and /links).  The aggregator — run by the launcher,
// which knows every node's monitor address — scrapes all of them on demand
// and serves:
//
//	/metrics  the union of every node's scrape, each series tagged with a
//	          node="<id>" label, plus pure_cluster_node_up per node
//	/cluster  one JSON document with per-node liveness, rank wait states,
//	          and transport link telemetry (the dying-link view)
//
// A node that cannot be scraped is reported down (pure_cluster_node_up 0,
// "alive": false) rather than failing the whole aggregation: the cluster
// view matters most while something is wrong.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Node names one worker's monitor endpoint.
type Node struct {
	Node int    // node id in the job
	Addr string // host:port of the node's monitor listener
}

// Aggregator scrapes a fixed set of per-node monitors.  Safe for concurrent
// use; every request fans out fresh scrapes (no caching — the point is a
// live view).
type Aggregator struct {
	nodes  []Node
	client *http.Client
}

// New builds an aggregator over the given nodes.  timeout bounds each
// per-node scrape (0 means 2s).
func New(nodes []Node, timeout time.Duration) *Aggregator {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	ns := make([]Node, len(nodes))
	copy(ns, nodes)
	sort.Slice(ns, func(i, j int) bool { return ns[i].Node < ns[j].Node })
	return &Aggregator{nodes: ns, client: &http.Client{Timeout: timeout}}
}

// Handler returns the aggregator's HTTP handler (/, /metrics, /cluster).
func (ag *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", ag.serveIndex)
	mux.HandleFunc("/metrics", ag.serveMetrics)
	mux.HandleFunc("/cluster", ag.serveCluster)
	return mux
}

func (ag *Aggregator) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "pure cluster monitor over %d nodes\n\n", len(ag.nodes))
	fmt.Fprintln(w, "/metrics  merged Prometheus scrape, node=\"<id>\" label per series")
	fmt.Fprintln(w, "/cluster  JSON per-node liveness, rank states, link telemetry")
	for _, n := range ag.nodes {
		fmt.Fprintf(w, "\nnode %d: http://%s/", n.Node, n.Addr)
	}
	fmt.Fprintln(w)
}

// get fetches one path from one node's monitor.
func (ag *Aggregator) get(n Node, path string) ([]byte, error) {
	resp, err := ag.client.Get("http://" + n.Addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: HTTP %d", n.Addr, path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// serveMetrics scrapes every node concurrently and writes the merged
// exposition: pure_cluster_node_up per node, then mergeExposition of the
// scrapes.
func (ag *Aggregator) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	results := make([]scrape, len(ag.nodes))
	var wg sync.WaitGroup
	for i, n := range ag.nodes {
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			results[i].node = n.Node
			results[i].body, results[i].err = ag.get(n, "/metrics")
		}(i, n)
	}
	wg.Wait()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# TYPE pure_cluster_node_up gauge")
	for _, r := range results {
		up := 1
		if r.err != nil {
			up = 0
		}
		fmt.Fprintf(bw, "pure_cluster_node_up{node=%q} %d\n", strconv.Itoa(r.node), up)
	}
	mergeExposition(bw, results)
	bw.Flush()
}

// scrape is one node's /metrics response.
type scrape struct {
	node int
	body []byte
	err  error
}

// mergeExposition writes the union of the scraped expositions to w, in
// order: every comment line ("# TYPE <name> <kind>", "# HELP <name> ...")
// once across all nodes, since the union shares each family, and every
// sample line tagged by tagNode.  Empty lines and failed scrapes
// contribute nothing.
func mergeExposition(w io.Writer, scrapes []scrape) {
	commented := map[string]bool{}
	for _, s := range scrapes {
		if s.err != nil {
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(s.body))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				if !commented[line] {
					commented[line] = true
					fmt.Fprintln(w, line)
				}
				continue
			}
			fmt.Fprintln(w, tagNode(line, s.node))
		}
	}
}

// tagNode injects a node="<id>" label into one exposition sample line.  The
// first '{' in a sample line always opens the label set (metric names cannot
// contain braces; escaped label values only appear after it).
func tagNode(line string, node int) string {
	label := `node="` + strconv.Itoa(node) + `"`
	if i := strings.IndexByte(line, '{'); i >= 0 {
		return line[:i+1] + label + "," + line[i+1:]
	}
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i] + "{" + label + "}" + line[i:]
	}
	return line // malformed; pass through untouched
}

// NodeStatus is one node's entry in the /cluster view.
type NodeStatus struct {
	Node  int    `json:"node"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	// Err explains a failed scrape (connection refused once the process
	// died, timeouts while it hangs, ...).
	Err string `json:"err,omitempty"`
	// ScrapeMs is how long the node took to answer.
	ScrapeMs int64 `json:"scrape_ms"`
	// Ranks and Links are the node's own /ranks and /links views.
	Ranks []obs.RankState `json:"ranks,omitempty"`
	Links []obs.LinkState `json:"links,omitempty"`
}

// ClusterView is the /cluster response body.
type ClusterView struct {
	Time  string       `json:"time"`
	Nodes []NodeStatus `json:"nodes"`
}

// View scrapes every node's rank and link state once.
func (ag *Aggregator) View() ClusterView {
	view := ClusterView{
		Time:  time.Now().Format(time.RFC3339Nano),
		Nodes: make([]NodeStatus, len(ag.nodes)),
	}
	var wg sync.WaitGroup
	for i, n := range ag.nodes {
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			st := NodeStatus{Node: n.Node, Addr: n.Addr}
			t0 := time.Now()
			rb, err := ag.get(n, "/ranks")
			st.ScrapeMs = time.Since(t0).Milliseconds()
			if err != nil {
				st.Err = err.Error()
				view.Nodes[i] = st
				return
			}
			var rv obs.RanksView
			if err := json.Unmarshal(rb, &rv); err != nil {
				st.Err = "bad /ranks payload: " + err.Error()
				view.Nodes[i] = st
				return
			}
			st.Alive = true
			st.Ranks = rv.Ranks
			if lb, err := ag.get(n, "/links"); err == nil {
				var lv obs.LinksView
				if json.Unmarshal(lb, &lv) == nil {
					st.Links = lv.Links
				}
			}
			view.Nodes[i] = st
		}(i, n)
	}
	wg.Wait()
	return view
}

func (ag *Aggregator) serveCluster(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ag.View())
}
