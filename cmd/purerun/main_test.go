package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/pure"
)

// The test binary doubles as the launched worker: when workerEnv is set the
// process runs one node of a tiny verified-Allreduce job instead of the
// tests, so the smoke test exercises the real launcher path — reserved
// ports, per-node environment, prefixed output, exit-code propagation —
// without building a second binary.
const workerEnv = "PURERUN_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		testWorker()
		return // testWorker exits
	}
	os.Exit(m.Run())
}

func testWorker() {
	tcfg, err := pure.TransportFromEnv()
	if err != nil || tcfg == nil {
		fmt.Fprintln(os.Stderr, "worker: need launcher environment:", err)
		os.Exit(1)
	}
	nodes := len(tcfg.Addrs)
	nranks := nodes
	if s := os.Getenv("PURE_NRANKS"); s != "" {
		if nranks, err = strconv.Atoi(s); err != nil || nranks%nodes != 0 {
			fmt.Fprintf(os.Stderr, "worker: bad PURE_NRANKS=%q for %d nodes\n", s, nodes)
			os.Exit(1)
		}
	}
	iters := 1
	if os.Getenv("PURE_LOOP_FOREVER") != "" {
		// The kill test needs the survivor mid-collective when its peer
		// dies, and a detector fast enough to keep the test short.
		iters = 1 << 30
		tcfg.HeartbeatEvery = 5 * time.Millisecond
		tcfg.PeerDeadAfter = 150 * time.Millisecond
	}
	// The monitor smoke test scrapes the job while it runs; PURE_HOLD_MS
	// keeps the ranks alive (inside Run, monitors serving) long enough.
	holdMS := 0
	if s := os.Getenv("PURE_HOLD_MS"); s != "" {
		if holdMS, err = strconv.Atoi(s); err != nil {
			fmt.Fprintf(os.Stderr, "worker: bad PURE_HOLD_MS=%q\n", s)
			os.Exit(1)
		}
	}
	// The cluster trace test has each node dump its trace to
	// PURE_TRACE_BIN.node<id>.  Every clock sample needs a heartbeat echoed
	// back, so 5 ms heartbeats over 2000 Allreduces give both directions
	// samples.
	traceBin := os.Getenv("PURE_TRACE_BIN")
	if traceBin != "" {
		iters = 2000
		tcfg.HeartbeatEvery = 5 * time.Millisecond
	}
	cfg := pure.Config{
		NRanks:      nranks,
		Spec:        pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: nranks / nodes, ThreadsPerCore: 1},
		Transport:   tcfg,
		HangTimeout: 30 * time.Second,
		MonitorAddr: os.Getenv("PURE_MONITOR"),
	}
	if traceBin != "" {
		cfg.Trace = pure.NewTrace(nranks, 0)
	}
	rep, err := pure.RunWithReport(cfg, func(r *pure.Rank) {
		w := r.World()
		me, n := r.ID(), r.NRanks()
		in, out := make([]byte, 8), make([]byte, 8)
		for i := 0; i < iters; i++ {
			binary.LittleEndian.PutUint64(in, uint64(me))
			w.Allreduce(in, out, pure.Sum, pure.Int64)
			if got, want := binary.LittleEndian.Uint64(out), uint64(n*(n-1)/2); got != want {
				panic(fmt.Sprintf("allreduce %d, want %d", got, want))
			}
		}
		if holdMS > 0 {
			time.Sleep(time.Duration(holdMS) * time.Millisecond)
		}
		if me == 0 {
			fmt.Println("OK")
		}
	})
	if err != nil {
		var re *pure.RunError
		if errors.As(err, &re) && re.Cause == pure.CauseNodeDead {
			fmt.Printf("NODEDEAD dead=%v\n", re.DeadNodes)
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	if traceBin != "" {
		if err := writeTraceBin(rep, fmt.Sprintf("%s.node%d", traceBin, tcfg.Node)); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
	}
	os.Exit(0)
}

func writeTraceBin(rep pure.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteTraceBin(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestRunSmoke launches a two-node four-rank job through run() — the same
// code path as the purerun binary — and checks the prefixed output and the
// zero exit code.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerEnv, "1") // inherited by the spawned workers
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "2", "-ranks", "4", exe}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[node 0] OK") {
		t.Fatalf("no prefixed OK line from node 0; stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "node 1 exited ok") {
		t.Fatalf("launcher never reported node 1's exit; stderr:\n%s", stderr.String())
	}
}

// TestRunClusterTraceMerge is the cluster-observability pipeline of
// docs/OBSERVABILITY.md end to end: a two-process job writes one trace dump
// per node (clock samples, link events, placement), analyze.Merge aligns
// them on the heartbeat-derived clock offsets, and the merged analysis pairs
// remote sends with their receives on the other node and matches each link
// direction's send and receive frames on sequence number.
func TestRunClusterTraceMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Setenv(workerEnv, "1")
	t.Setenv("PURE_TRACE_BIN", filepath.Join(dir, "trace.bin"))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "2", "-ranks", "4", "-timeout", "60s", exe}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	dumps := make([]*obs.TraceDump, 2)
	for node := range dumps {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("trace.bin.node%d", node)))
		if err != nil {
			t.Fatalf("node %d wrote no trace dump: %v", node, err)
		}
		dumps[node], err = obs.ReadTraceBin(f)
		f.Close()
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	merged, info, err := analyze.Merge(dumps)
	if err != nil {
		t.Fatal(err)
	}
	aligned := 0
	for _, na := range info.Nodes {
		if na.Node != info.Ref && na.Aligned {
			aligned++
		}
	}
	if aligned != 1 {
		t.Fatalf("merge aligned %d node clocks to the reference, want 1: %+v", aligned, info)
	}
	place := merged.Meta.NodeOfRank
	if len(place) != merged.NRanks {
		t.Fatalf("merged dump places %d of %d ranks", len(place), merged.NRanks)
	}
	a := analyze.Run(merged.Events, merged.NRanks, analyze.Options{
		Links:  merged.Meta.Links,
		NodeOf: func(r int32) int { return int(place[r]) },
	})
	crossMatched := 0
	for _, ps := range a.Paths {
		if ps.Path == analyze.PathRemote {
			crossMatched = ps.Matched
		}
	}
	if crossMatched == 0 {
		t.Fatalf("the merged trace pairs no cross-node sends with their receives: %+v", a.Paths)
	}
	seqMatched := 0
	for _, f := range a.Links {
		seqMatched += f.Matched
	}
	if seqMatched == 0 {
		t.Fatalf("no link flow matches a frame on both sides (%d flows)", len(a.Links))
	}
	t.Logf("%d cross-node message pairs, %d link frames matched on sequence number", crossMatched, seqMatched)
}

// lockedBuf lets the test read launcher output while run()'s forwarding
// goroutines are still writing it.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func tryGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// TestRunMonitorServesClusterView launches a held two-node job with -monitor
// and, while it runs, checks that (1) every worker's printed monitor address
// serves its own /metrics and /ranks, and (2) the aggregated endpoint serves
// merged node-labeled metrics with live per-link telemetry and a /cluster
// view with both nodes alive.
func TestRunMonitorServesClusterView(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerEnv, "1")
	t.Setenv("PURE_HOLD_MS", "4000") // keep monitors serving while we scrape
	var stdout, stderr lockedBuf
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run([]string{"-n", "2", "-ranks", "4", "-monitor", "127.0.0.1:0", "-timeout", "60s", exe}, &stdout, &stderr)
	}()

	aggRe := regexp.MustCompile(`cluster monitor http://([^/\s]+)/`)
	nodeRe := regexp.MustCompile(`node (\d+) monitor http://([^/\s]+)/`)
	var agg string
	var nodeAddrs []string
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		s := stderr.String()
		if m := aggRe.FindStringSubmatch(s); m != nil {
			agg = m[1]
		}
		if nm := nodeRe.FindAllStringSubmatch(s, -1); agg != "" && len(nm) == 2 {
			nodeAddrs = []string{}
			for _, m := range nm {
				nodeAddrs = append(nodeAddrs, m[2])
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if agg == "" || len(nodeAddrs) != 2 {
		t.Fatalf("launcher never printed monitor addresses; stderr:\n%s", stderr.String())
	}

	// Satellite contract: each worker's monitor address is reachable while
	// the job runs.  Retry while the workers boot.
	for i, addr := range nodeAddrs {
		var body string
		for time.Now().Before(deadline) {
			if body, err = tryGet("http://" + addr + "/metrics"); err == nil {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("node %d monitor %s unreachable while job runs: %v", i, addr, err)
		}
		if !strings.Contains(body, "pure_monitor_scrapes_total") {
			t.Fatalf("node %d scrape looks wrong:\n%s", i, body)
		}
		if body, err = tryGet("http://" + addr + "/ranks"); err != nil || !strings.Contains(body, `"ranks"`) {
			t.Fatalf("node %d /ranks: %v\n%s", i, err, body)
		}
	}

	// The aggregated scrape carries per-node labels and per-link telemetry
	// for every node; /cluster reports both nodes alive with link state.
	var merged string
	for time.Now().Before(deadline) {
		merged, err = tryGet("http://" + agg + "/metrics")
		if err == nil &&
			strings.Contains(merged, `pure_link_frames_sent_total{node="0",peer="1"}`) &&
			strings.Contains(merged, `pure_link_frames_sent_total{node="1",peer="0"}`) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !strings.Contains(merged, `pure_cluster_node_up{node="0"} 1`) ||
		!strings.Contains(merged, `pure_cluster_node_up{node="1"} 1`) ||
		!strings.Contains(merged, `pure_link_frames_sent_total{node="0",peer="1"}`) {
		t.Fatalf("merged scrape missing cluster series:\n%s", merged)
	}
	cl, err := tryGet("http://" + agg + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cl, `"alive": true`) || !strings.Contains(cl, `"links"`) {
		t.Fatalf("/cluster view missing liveness or links:\n%s", cl)
	}

	if code := <-codeCh; code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[node 0] OK") {
		t.Fatalf("worker never finished; stdout:\n%s", stdout.String())
	}
}

// TestRunKillPropagatesFailure SIGKILLs node 1 under the launcher and
// checks that the surviving node's node-dead exit code (3) propagates out
// of run().
func TestRunKillPropagatesFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and waits on failure detection")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerEnv, "1")
	t.Setenv("PURE_LOOP_FOREVER", "1")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "2", "-kill", "1:300ms", "-timeout", "30s", exe}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("run exited %d, want 3 (node-dead)\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "NODEDEAD dead=[1]") {
		t.Fatalf("survivor never reported node 1 dead; stdout:\n%s", stdout.String())
	}
}

func TestParseKill(t *testing.T) {
	cases := []struct {
		spec  string
		nodes int
		node  int
		delay time.Duration
		bad   bool
	}{
		{"", 3, -1, 0, false},
		{"1:200ms", 3, 1, 200 * time.Millisecond, false},
		{"0:2s", 1, 0, 2 * time.Second, false},
		{"nocolon", 3, 0, 0, true},
		{"x:200ms", 3, 0, 0, true},
		{"1:banana", 3, 0, 0, true},
		{"3:200ms", 3, 0, 0, true},  // out of range
		{"-1:200ms", 3, 0, 0, true}, // out of range
	}
	for _, c := range cases {
		node, delay, err := parseKill(c.spec, c.nodes)
		if c.bad {
			if err == nil {
				t.Errorf("parseKill(%q, %d): no error", c.spec, c.nodes)
			}
			continue
		}
		if err != nil || node != c.node || delay != c.delay {
			t.Errorf("parseKill(%q, %d) = (%d, %v, %v), want (%d, %v, nil)",
				c.spec, c.nodes, node, delay, err, c.node, c.delay)
		}
	}
}
