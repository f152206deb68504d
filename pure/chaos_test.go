package pure_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/pure"
)

// The lossy suites run two in-process nodes, joined by the link layer that
// joins processes: a TransportConfig without Addrs carries the links' fault
// plan, which resets the connection at first transmissions and delays
// arrivals.  The link's redial-and-replay recovery must keep every result
// exact.

// lossyNodes places one rank on each of two in-process nodes, so every
// operation between the ranks crosses a link, and gives the links the fault
// plan f.
func lossyNodes(f pure.TransportFaults) pure.Config {
	return pure.Config{
		NRanks:       2,
		Spec:         pure.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		RanksPerNode: 1,
		HangTimeout:  20 * time.Second,
		Metrics:      pure.NewMetrics(),
		Transport:    &pure.TransportConfig{Faults: f},
	}
}

// runLossy runs main under cfg and returns the job's counters.
func runLossy(t *testing.T, cfg pure.Config, main func(r *pure.Rank)) map[string]int64 {
	t.Helper()
	if err := pure.Run(cfg, main); err != nil {
		t.Fatal(err)
	}
	c := map[string]int64{}
	for _, s := range cfg.Metrics.Snapshot().Counters {
		c[s.Name] = s.Value
	}
	return c
}

// checkRecovered asserts the run was lossy and that the loss was recovered by
// a reconnect replay (the run's exactness is the test body's to assert).
func checkRecovered(t *testing.T, c map[string]int64) {
	t.Helper()
	if c["pure_tp_resets_injected_total"] == 0 {
		t.Error("fault plan injected no resets; the test exercised nothing")
	}
	if c["pure_tp_retransmits_total"] == 0 {
		t.Error("resets were injected but no reconnect replayed anything")
	}
}

// chaosFaults is transport.ChaosFaults(resetProb): the seed-swept plans.
func chaosFaults(t *testing.T, resetProb float64) []pure.TransportFaults {
	plans, err := transport.ChaosFaults(resetProb)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// TestFaultInjectionFromPublicAPI: a cross-node stream over 10%-lossy links,
// configured through nothing but the public TransportConfig.Faults, still
// delivers every message exactly once and in order.
func TestFaultInjectionFromPublicAPI(t *testing.T) {
	c := runLossy(t, lossyNodes(pure.TransportFaults{Seed: 11, ResetProb: 0.10}), func(r *pure.Rank) {
		w := r.World()
		w.Barrier() // the link is up: what follows is transmitted (and may reset it), not replayed on connect
		buf := make([]byte, 16)
		for i := 0; i < 25; i++ {
			if r.ID() == 0 {
				buf[0] = byte(i)
				w.Send(buf, 1, 0)
			} else {
				w.Recv(buf, 0, 0)
				if buf[0] != byte(i) {
					r.Abort(fmt.Errorf("message %d corrupted or lost", i))
				}
			}
		}
		// The sender may return with its last messages unacknowledged: what the
		// close-time drain replays is counted too.
	})
	checkRecovered(t, c)
}

// TestChaosRMARemotePutLossy drives remote Put/Accumulate traffic over
// 20%-lossy links across several seeds: every frame must be applied exactly once
// (exact final sums), and recovery must be visible in the link counters.
func TestChaosRMARemotePutLossy(t *testing.T) {
	const rounds = 30
	for _, faults := range chaosFaults(t, 0.20) {
		t.Run(fmt.Sprintf("seed=%d", faults.Seed), func(t *testing.T) {
			c := runLossy(t, lossyNodes(faults), func(r *pure.Rank) {
				w := r.World().WinCreate(make([]byte, 16))
				w.Fence()
				if r.ID() == 0 {
					for i := 1; i <= rounds; i++ {
						w.Put(pure.Int64Bytes([]int64{int64(i)}), 1, 0)
						w.Accumulate(pure.Int64Bytes([]int64{int64(i)}), 1, 8, pure.Sum, pure.Int64)
					}
				}
				w.Fence()
				if r.ID() == 1 {
					var got [2]int64
					pure.GetInt64s(got[:], w.Buffer())
					if got[0] != rounds {
						r.Abort(fmt.Errorf("last put = %d, want %d", got[0], rounds))
					}
					if got[1] != rounds*(rounds+1)/2 {
						r.Abort(fmt.Errorf("accumulated sum = %d, want %d (lost or duplicated frame)", got[1], rounds*(rounds+1)/2))
					}
				}
				w.Fence()
				// PSCW epochs over the same lossy links: each round's put
				// must be ordered inside its Post/Wait exposure.
				for round := 0; round < 10; round++ {
					if r.ID() == 1 {
						w.Post([]int{0})
						w.Wait()
						var got [1]int64
						pure.GetInt64s(got[:], w.Buffer())
						if got[0] != int64(round) {
							r.Abort(fmt.Errorf("pscw round %d: exposed %d", round, got[0]))
						}
					} else {
						w.Start([]int{1})
						w.Put(pure.Int64Bytes([]int64{int64(round)}), 1, 0)
						w.Complete()
					}
				}
			})
			checkRecovered(t, c)
			if c["pure_rma_remote_packets_total"] == 0 {
				t.Error("no remote RMA packets recorded")
			}
		})
	}
}

// TestChaosShmemRemoteLossy drives remote atomic adds over 20%-lossy links: every
// add must be applied exactly once (exact sum) and in flow order (last
// store), across several seeds.
func TestChaosShmemRemoteLossy(t *testing.T) {
	const rounds = 40
	for _, faults := range chaosFaults(t, 0.20) {
		t.Run(fmt.Sprintf("seed=%d", faults.Seed), func(t *testing.T) {
			c := runLossy(t, lossyNodes(faults), func(r *pure.Rank) {
				s := r.World().ShmemCreate(4096, 0)
				cell := s.Malloc(8)
				last := s.Malloc(8)
				if s.Rank() == 0 {
					for i := 1; i <= rounds; i++ {
						s.AtomicAdd(1, cell, int64(i))
						s.AtomicStore(1, last, int64(i))
					}
				}
				s.Barrier()
				if s.Rank() == 1 {
					if got := s.AtomicLoad(1, cell); got != rounds*(rounds+1)/2 {
						r.Abort(fmt.Errorf("sum = %d, want %d (lost or duplicated add)", got, rounds*(rounds+1)/2))
					}
					if got := s.AtomicLoad(1, last); got != rounds {
						r.Abort(fmt.Errorf("last store = %d, want %d (reordered flow)", got, rounds))
					}
				}
				s.Barrier()
			})
			checkRecovered(t, c)
		})
	}
}
