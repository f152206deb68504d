package livechaos

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	statsdapp "repro/internal/apps/statsd"
	proto "repro/internal/statsd"
	"repro/pure"
)

// The statsd chaos workload: the full aggregation pipeline from
// internal/apps/statsd, run as one real process per node with PURE_WORKLOAD=
// statsd — ingestion ranks on the front nodes, aggregators on the last node,
// live TCP in between.

// statsdMain is the worker body for PURE_WORKLOAD=statsd: the last node
// aggregates, every other node ingests (two ranks per node), and the world
// runs the pipeline PURE_ITERS times with the zero-sum checksum asserted
// after every run.  Exit codes match workerMain — the purestatsd CLI follows
// the same convention.
func statsdMain(tcfg *pure.TransportConfig) {
	nodes := len(tcfg.Addrs)
	const perNode = 2
	nranks := nodes * perNode
	iters := envInt("PURE_ITERS", 3)
	events := int64(envInt("PURE_STATSD_EVENTS", 4000))
	pcfg := pure.Config{
		NRanks:      nranks,
		Spec:        pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: perNode, ThreadsPerCore: 1},
		Transport:   tcfg,
		HangTimeout: time.Duration(envInt("PURE_HANG_MS", 20000)) * time.Millisecond,
		Metrics:     workerMetrics,
	}
	cfg := statsdapp.Config{
		Ingesters:   nranks - perNode, // every node but the last ingests
		Aggregators: perNode,          // the last node aggregates
		Events:      events,
		Rounds:      2,
		Interner:    proto.NewInterner(4096), // node-shared across this process's ranks
	}
	err := pure.Run(pcfg, func(r *pure.Rank) {
		for i := 0; i < iters; i++ {
			res, err := statsdapp.Run(r, cfg)
			if err != nil {
				r.Abort(err)
				return
			}
			if !res.Exact || res.Applied != uint64(events) {
				panic(fmt.Sprintf("iter %d: inexact flush: applied %d of %d (sum %#x)",
					i, res.Applied, events, res.Sum))
			}
			if r.ID() == 0 && i == 0 {
				fmt.Printf("LOOP applied=%d sum=%#x\n", res.Applied, res.Sum)
			}
		}
		if r.ID() == 0 {
			fmt.Println("OK")
		}
	})
	exitRun(err)
}

// TestStatsdChaosLiveKill is the application acceptance scenario: a real
// three-process deployment (two ingestion nodes feeding one aggregation
// node over TCP) loses the AGGREGATOR node to SIGKILL mid-run.  Every
// survivor must unwind with a structured node-dead failure naming the dead
// node — ingestion must not hang on a shard queue whose consumer no longer
// exists.
func TestStatsdChaosLiveKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and waits on failure detection")
	}
	const hang = 20 * time.Second
	procs := launchWorld(t, 3, []string{
		"PURE_WORKLOAD=statsd",
		"PURE_ITERS=1000000", // far more than will run: the kill cuts it short
		"PURE_STATSD_EVENTS=8000",
		"PURE_HB_MS=5",
		"PURE_DEAD_MS=150",
		"PURE_HANG_MS=" + strconv.Itoa(int(hang.Milliseconds())),
	})
	select {
	case <-procs[0].loop:
	case <-time.After(30 * time.Second):
		t.Fatalf("pipeline never completed its first run; node 0 stdout:\n%s", procs[0].stdout())
	}
	start := time.Now()
	if err := procs[2].cmd.Process.Kill(); err != nil { // node 2 hosts the aggregators
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		code := waitCode(t, procs[i], hang+10*time.Second)
		if code != 3 {
			t.Fatalf("node %d: exit code %d, want 3 (node-dead); stdout:\n%s", i, code, procs[i].stdout())
		}
		out := procs[i].stdout()
		if !strings.Contains(out, "NODEDEAD dead=[2]") {
			t.Fatalf("node %d: no NODEDEAD report naming node 2; stdout:\n%s", i, out)
		}
	}
	if e := time.Since(start); e >= hang {
		t.Fatalf("survivors took %v to report the death, not inside HangTimeout %v", e, hang)
	}
	if code := waitCode(t, procs[2], time.Second); code != -1 {
		t.Fatalf("killed node reported exit code %d, want -1 (signal)", code)
	}
}

// TestStatsdChaosLiveLossy resets the connection at 15%% of first
// transmissions on every link of a two-process deployment (ingesters on node
// 0, aggregators on node 1); the transport redials and replays, and every
// run's flush totals must stay exactly checksum-verified end to end.
func TestStatsdChaosLiveLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and redials real sockets")
	}
	procs := launchWorld(t, 2, []string{
		"PURE_WORKLOAD=statsd",
		"PURE_ITERS=3",
		"PURE_STATSD_EVENTS=4000",
		"PURE_RESET=0.15",
	})
	for i, p := range procs {
		if code := waitCode(t, p, 120*time.Second); code != 0 {
			t.Fatalf("node %d: exit code %d, want 0; stdout:\n%s", i, code, p.stdout())
		}
	}
	out := procs[0].stdout()
	if !strings.Contains(out, "OK") {
		t.Fatalf("node 0 never printed OK; stdout:\n%s", out)
	}
	if !strings.Contains(out, "applied=4000") {
		t.Fatalf("node 0 never reported exact applied totals; stdout:\n%s", out)
	}
	checkRecovered(t, procs)
}
