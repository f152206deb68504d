package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/pure"
)

// nRanks is fixed, not derived from the host, so every workload is the same
// program everywhere (this box has 2 cores; more ranks would measure the Go
// scheduler, not the runtime).
const nRanks = 2

// obsOpts selects what one repetition observes.  The zero value is the
// timed configuration: no trace, no metrics, no monitor, no spans.
type obsOpts struct {
	trace   bool     // pure.Config.Trace
	metrics bool     // pure.Config.Metrics
	monitor bool     // pure.Config.MonitorAddr on a free loopback port
	spans   *spanLog // benchmark-side spans around calls into the layers
	rep     string   // the repetition's label on its spans
}

// repResult is what one repetition of one workload yields.
type repResult struct {
	setupS float64 // pure.Run call until every rank passed its first Barrier
	wallS  float64 // the timed region
	ops    int64   // operations attempted in the timed region
	failed int64   // operations whose verification failed

	opLat []int64 // sorted latencies of the workload's primary operation, ns
	rate  float64 // the workload's primary throughput, 1/s

	// named holds the phase metrics that exist only on this workload
	// (rtt_64KiB_ns_p50, barrier_ns_p50, ...), by manifest name.
	named map[string]float64

	mallocs    uint64 // MemStats.Mallocs delta over the timed region
	allocBytes uint64 // MemStats.TotalAlloc delta over the timed region
	gcCycles   uint32

	reports []pure.Report   // one per node
	backend []backendTotals // per rank, when the comm.Backend was decorated (CoMD span repetition)
}

// opP50 is the median latency of a repetition's primary operation.
func opP50(r *repResult) float64 { return percentile(r.opLat, 50) }

// workload is one row of the workload table, prepared for one seed.
type workload interface {
	// rep launches the runtime, sets up, runs the fixed-size timed region
	// once and verifies every output.
	rep(o obsOpts) (*repResult, error)
	// layers runs the workload's share of the layer pass — standalone
	// ladder rungs and counters read off the span repetition — and stores
	// per-layer metrics by manifest name.
	layers(lp *layerPass) error
}

// region brackets one repetition's timed region.  Rank 0 calls begin after
// the first Barrier and end after the last; any rank may count failures.
type region struct {
	launched int64 // just before the pure.Run call(s)
	t0, t1   int64
	setupNs  int64
	m0, m1   runtime.MemStats
	failed   atomic.Int64
}

func newRegion() *region { return &region{launched: now()} }

func (g *region) begin() {
	g.setupNs = now() - g.launched
	runtime.ReadMemStats(&g.m0)
	g.t0 = now()
}

func (g *region) end() {
	g.t1 = now()
	runtime.ReadMemStats(&g.m1)
}

// start is what every rank calls when its set-up is done: the first
// Barrier closes set-up, rank 0 opens the region, the second Barrier
// releases everyone into it.
func (g *region) start(me int, barrier func()) {
	barrier()
	if me == 0 {
		g.begin()
	}
	barrier()
}

// finish is what every rank calls after its last operation.
func (g *region) finish(me int, barrier func()) {
	barrier()
	if me == 0 {
		g.end()
	}
}

// repSpans opens the two spans every repetition starts with on the harness
// lane: the repetition and, inside it, the pure.Run call(s).
func repSpans(o obsOpts) (h *spanLane, root, run int32) {
	h = o.spans.lane(0, o.rep)
	root = h.begin("rep", noSpan)
	return h, root, h.begin("pure.Run", root)
}

// result fills the fields every workload reports the same way.
func (g *region) result(ops int64, reports []pure.Report) *repResult {
	return &repResult{
		setupS:     float64(g.setupNs) / 1e9,
		wallS:      float64(g.t1-g.t0) / 1e9,
		ops:        ops,
		failed:     g.failed.Load(),
		named:      map[string]float64{},
		mallocs:    g.m1.Mallocs - g.m0.Mallocs,
		allocBytes: g.m1.TotalAlloc - g.m0.TotalAlloc,
		gcCycles:   g.m1.NumGC - g.m0.NumGC,
		reports:    reports,
	}
}

// topo is the shape of the virtual cluster a program runs on.
type topo struct{ nodes, perNode int }

var (
	oneNode  = topo{nodes: 1, perNode: nRanks} // shared memory
	twoNodes = topo{nodes: nRanks, perNode: 1} // loopback TCP, 1 rank per node
)

// launch starts the program and returns one report per node: a single
// pure.Run on one node, or one pure.Run instance per node in this process,
// joined by Config.Transport over 127.0.0.1 (the single-process form of a
// purerun launch; loopback, not a real link).  run is pure.RunWithReport or
// comm.RunPureWithReport bound to the body.
func launch(t topo, o obsOpts, run func(cfg pure.Config) (pure.Report, error)) ([]pure.Report, error) {
	ranks := t.nodes * t.perNode
	configure := func(cfg *pure.Config) {
		cfg.NRanks = ranks
		if o.trace {
			cfg.Trace = pure.NewTrace(ranks, 0)
		}
		if o.metrics {
			cfg.Metrics = pure.NewMetrics()
		}
		if o.monitor {
			cfg.MonitorAddr = "127.0.0.1:0"
		}
	}
	if t.nodes == 1 {
		var cfg pure.Config
		configure(&cfg)
		rep, err := run(cfg)
		return []pure.Report{rep}, err
	}
	addrs, err := reserveAddrs(t.nodes)
	if err != nil {
		return nil, err
	}
	job := jobSeq.Add(1)
	reports := make([]pure.Report, t.nodes)
	errs := make([]error, t.nodes)
	var wg sync.WaitGroup
	for node := 0; node < t.nodes; node++ {
		var cfg pure.Config
		configure(&cfg)
		cfg.Spec = pure.Spec{Nodes: t.nodes, SocketsPerNode: 1, CoresPerSocket: t.perNode, ThreadsPerCore: 1}
		// Liveness bounds far above the 200 ms default: a descheduled
		// heartbeat goroutine must not turn a latency benchmark into a
		// failure-detection test.
		cfg.Transport = &pure.TransportConfig{
			Node: node, Addrs: addrs, Job: job,
			HeartbeatEvery: 50 * time.Millisecond,
			PeerDeadAfter:  5 * time.Second,
		}
		cfg.HangTimeout = 20 * time.Second
		wg.Add(1)
		go func(node int, cfg pure.Config) {
			defer wg.Done()
			reports[node], errs[node] = run(cfg)
		}(node, cfg)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			return reports, fmt.Errorf("node %d: %w", node, err)
		}
	}
	return reports, nil
}

// jobSeq numbers the TCP jobs so a stale link of an earlier repetition
// cannot join a later one.
var jobSeq atomic.Uint64

// reserveAddrs picks n free loopback ports below the kernel's ephemeral
// range by binding and releasing them.  Below, because a port from ":0" is
// itself ephemeral: between its release and the transport's bind, the peer's
// own dial can be handed it as a source port, and over the thousands of
// launches of a driver session that one-in-30000 collision happens.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 1000 {
			return nil, fmt.Errorf("no free loopback port in [%d, %d)", portLo, portHi)
		}
		// Start where the process id says, so two benchmark processes do
		// not walk the range in step.
		addr := fmt.Sprintf("127.0.0.1:%d", portLo+(os.Getpid()*64+int(nextPort.Add(1)))%(portHi-portLo))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue // taken by someone else; try the next one
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

const portLo, portHi = 10000, 30000

var nextPort atomic.Uint32

// totalStats sums the per-rank counters of every node's report.
func totalStats(reports []pure.Report) pure.RankStats {
	var t pure.RankStats
	for _, rep := range reports {
		t.Add(rep.Total)
	}
	return t
}
