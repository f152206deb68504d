// Package puretest runs multi-node Pure programs inside one test process on
// the path that ships: one pure.Run per node, joined over loopback TCP — the
// single-process form of a purerun launch.  Every cross-node code path (link
// protocol, comm ids, RMA watermarks) is the one a real job runs; only the
// process boundary is missing, which internal/livechaos covers.
package puretest

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/pure"
)

// jobSeq numbers this process's jobs, so a stale link of an earlier test
// cannot join a later one.
var jobSeq atomic.Uint64

// RunNodes runs main as one Pure program with one pure.Run per node of
// cfg.Spec, over loopback TCP links that inject faults, and returns the
// runtime's counters summed over the nodes (pure_tp_drops_injected_total and
// pure_tp_retransmits_total say whether the run was lossy and recovered).
// The links retransmit after milliseconds and never give up, so injected
// loss costs a test little time and never a link.  Any node's error fails
// the test.
func RunNodes(t testing.TB, cfg pure.Config, faults pure.TransportFaults, main func(r *pure.Rank)) map[string]int64 {
	t.Helper()
	nodes := cfg.Spec.Nodes
	addrs, err := transport.ReserveLoopback(nodes)
	if err != nil {
		t.Fatal(err)
	}
	job := uint64(os.Getpid())<<32 | jobSeq.Add(1)
	if cfg.HangTimeout == 0 {
		cfg.HangTimeout = 30 * time.Second // diagnose, don't hang, if the protocol breaks
	}
	mets := make([]*pure.Metrics, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := range errs {
		ncfg := cfg
		mets[n] = pure.NewMetrics()
		ncfg.Metrics = mets[n]
		ncfg.Transport = &pure.TransportConfig{
			Node: n, Addrs: addrs, Job: job,
			// Generous liveness bounds: a loaded CI host can starve a
			// heartbeat goroutine past the production default and fail runs
			// that are not about failure detection.
			HeartbeatEvery: 50 * time.Millisecond,
			PeerDeadAfter:  5 * time.Second,
			Faults:         faults,
			RetryBackoff:   2 * time.Millisecond,
			RetryBudget:    1000,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[n] = pure.Run(ncfg, main)
		}()
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", n, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	counters := map[string]int64{}
	for _, m := range mets {
		for _, c := range m.Snapshot().Counters {
			counters[c.Name] += c.Value
		}
	}
	return counters
}

// Lossy is the fault plan of the lossy suites: dropProb of first transmissions
// dropped, and a tenth of arrivals delayed by up to a millisecond so that acks
// come late as well.
func Lossy(seed int64, dropProb float64) pure.TransportFaults {
	return pure.TransportFaults{Seed: uint64(seed), DropProb: dropProb, DelayProb: 0.10, DelayMax: time.Millisecond}
}

// ChaosSeeds returns the fault-injection seeds a chaos test sweeps: {1, 2, 3}
// by default, overridable with PURE_CHAOS_SEEDS=comma,separated,ints.
func ChaosSeeds(t testing.TB) []int64 {
	t.Helper()
	env := os.Getenv("PURE_CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("bad PURE_CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}
