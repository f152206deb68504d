package shmemapp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/pure"
)

// multiNodeCfg places one rank per in-process node so every remote operation
// crosses a link.
func multiNodeCfg(nodes int) pure.Config {
	return pure.Config{
		NRanks:       nodes,
		Spec:         pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		RanksPerNode: 1,
		HangTimeout:  30 * time.Second,
	}
}

// lossyCfg is multiNodeCfg(2) over links with the fault plan faults.
func lossyCfg(faults pure.TransportFaults) pure.Config {
	cfg := multiNodeCfg(2)
	cfg.Metrics = pure.NewMetrics()
	cfg.Transport = &pure.TransportConfig{Faults: faults}
	return cfg
}

// checkRecovered fails the test unless the links of a lossyCfg run injected
// resets and a reconnect replayed frames.
func checkRecovered(t *testing.T, m *pure.Metrics) {
	t.Helper()
	c := map[string]int64{}
	for _, s := range m.Snapshot().Counters {
		c[s.Name] = s.Value
	}
	if c["pure_tp_resets_injected_total"] == 0 || c["pure_tp_retransmits_total"] == 0 {
		t.Fatalf("the links injected %d resets and replayed %d frames; the test exercised nothing",
			c["pure_tp_resets_injected_total"], c["pure_tp_retransmits_total"])
	}
}

// chaosFaults is transport.ChaosFaults at 15% resets: the seed-swept plans.
func chaosFaults(t *testing.T) []pure.TransportFaults {
	plans, err := transport.ChaosFaults(0.15)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// histMain is the rank body of a histogram run; rank 0 leaves its result in
// res (every rank computes the same one).
func histMain(hcfg HistConfig, res *HistResult) func(r *pure.Rank) {
	return func(r *pure.Rank) {
		got, herr := RunHistogram(r, hcfg)
		if herr != nil {
			r.Abort(herr)
			return
		}
		if r.ID() == 0 {
			*res = got
		}
	}
}

func runHist(t *testing.T, cfg pure.Config, hcfg HistConfig) HistResult {
	t.Helper()
	var res HistResult
	if err := pure.Run(cfg, histMain(hcfg, &res)); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHistogramSingleNode: 4 co-resident ranks; the distributed totals
// must be bit-exact against the serial reference every round, and the
// checksum must equal the oracle's.
func TestHistogramSingleNode(t *testing.T) {
	hcfg := HistConfig{Bins: 128, Items: 1024, Rounds: 3, Seed: 7}
	res := runHist(t, pure.Config{NRanks: 4}, hcfg)
	if !res.Exact {
		t.Fatal("histogram diverged from the serial reference")
	}
	if want := int64(4 * 1024 * 3); res.Updates != want {
		t.Fatalf("updates = %d, want %d", res.Updates, want)
	}
	ref := HistReference(hcfg, 4, 3)
	var want int64
	for b, v := range ref {
		want += v * int64(b+1)
	}
	if res.Sum != want {
		t.Fatalf("checksum = %d, want %d", res.Sum, want)
	}
}

// TestHistogramCrossNode: every increment to a peer bin crosses a link as
// one atomic-add RMA frame; exactness must survive.
func TestHistogramCrossNode(t *testing.T) {
	res := runHist(t, multiNodeCfg(2), HistConfig{Bins: 64, Items: 200, Rounds: 2, Seed: 11})
	if !res.Exact {
		t.Fatal("cross-node histogram diverged from the serial reference")
	}
}

// TestChaosHistogramLossy: two one-rank nodes over 15%-lossy links, and the
// histogram must still be bit-exact — the link layer replays every atomic-add
// frame a reset cut off and discards every duplicate.
func TestChaosHistogramLossy(t *testing.T) {
	for _, faults := range chaosFaults(t) {
		seed := faults.Seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := lossyCfg(faults)
			res := runHist(t, cfg, HistConfig{Bins: 32, Items: 60, Rounds: 2, Seed: seed})
			if !res.Exact {
				t.Fatal("lossy-link histogram diverged from the serial reference")
			}
			checkRecovered(t, cfg.Metrics)
		})
	}
}

// bfsMain is the rank body of a BFS run; rank 0 leaves its result in res.
func bfsMain(bcfg BFSConfig, res *BFSResult) func(r *pure.Rank) {
	return func(r *pure.Rank) {
		got, berr := RunBFS(r, bcfg)
		if berr != nil {
			r.Abort(berr)
			return
		}
		if r.ID() == 0 {
			*res = got
		}
	}
}

func runBFS(t *testing.T, cfg pure.Config, bcfg BFSConfig) BFSResult {
	t.Helper()
	var res BFSResult
	if err := pure.Run(cfg, bfsMain(bcfg, &res)); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBFSSingleNode: 4 ranks over mailboxes in one node's shared memory.
// The ring+skip graph is connected (ring edges alone connect it), so every
// vertex must be reached, at oracle-identical distances.
func TestBFSSingleNode(t *testing.T) {
	bcfg := BFSConfig{Vertices: 1024, Degree: 3, Seed: 5}
	res := runBFS(t, pure.Config{NRanks: 4}, bcfg)
	if !res.Exact {
		t.Fatal("BFS distances diverged from the serial reference")
	}
	if res.Reached != int64(bcfg.Vertices) {
		t.Fatalf("reached %d of %d vertices", res.Reached, bcfg.Vertices)
	}
}

// TestBFSSmallMailbox squeezes the frontier exchange through capacity-2
// rings, forcing the drain-on-full path constantly.
func TestBFSSmallMailbox(t *testing.T) {
	res := runBFS(t, pure.Config{NRanks: 4}, BFSConfig{Vertices: 512, Degree: 4, MailboxCap: 2, Seed: 9})
	if !res.Exact {
		t.Fatal("BFS with tiny mailboxes diverged from the serial reference")
	}
}

// TestBFSCrossNode sends the frontier through remote mailboxes: each
// message is one delivery frame, and the owner runs the ring's producer
// steps on its own region and replies "delivered" or "full".
func TestBFSCrossNode(t *testing.T) {
	res := runBFS(t, multiNodeCfg(2), BFSConfig{Vertices: 96, Degree: 2, MailboxCap: 8, Seed: 13})
	if !res.Exact {
		t.Fatal("cross-node BFS diverged from the serial reference")
	}
	if res.Reached != 96 {
		t.Fatalf("reached %d of 96 vertices", res.Reached)
	}
}

// TestChaosBFSLossy runs the mailbox frontier exchange over 15%-lossy
// links: per-sender FIFO and exactly-once delivery must survive reconnect
// replays, or distances diverge.  Every remote send is one round trip (a
// delivery frame and the owner's reply), and every reset waits out a redial.
func TestChaosBFSLossy(t *testing.T) {
	for _, faults := range chaosFaults(t) {
		seed := faults.Seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := lossyCfg(faults)
			res := runBFS(t, cfg, BFSConfig{Vertices: 48, Degree: 2, MailboxCap: 4, Seed: seed + 1})
			if !res.Exact {
				t.Fatal("lossy-link BFS diverged from the serial reference")
			}
			checkRecovered(t, cfg.Metrics)
		})
	}
}

// TestBFSReferenceConnected pins the oracle itself: ring edges make the
// graph connected, so no vertex may stay at -1.
func TestBFSReferenceConnected(t *testing.T) {
	ref := BFSReference(BFSConfig{Vertices: 300, Degree: 1, Seed: 3})
	for v, d := range ref {
		if d < 0 {
			t.Fatalf("vertex %d unreachable in a ring-connected graph", v)
		}
	}
}
