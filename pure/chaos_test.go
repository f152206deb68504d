package pure_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/puretest"
	"repro/pure"
)

// The lossy suites run on the path that ships: one pure.Run per node over
// loopback TCP (puretest.RunNodes), with the transport's own fault plan
// dropping first transmissions and delaying arrivals.  The link's go-back-N
// recovery must keep every result exact.

// twoNodes places one rank on each of two nodes, so every operation between
// the ranks crosses a link.
func twoNodes() pure.Config {
	return pure.Config{
		NRanks:       2,
		Spec:         pure.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		RanksPerNode: 1,
		HangTimeout:  20 * time.Second,
	}
}

// checkRecovered asserts the run was lossy and that the loss was recovered by
// retransmission (the run's exactness is the test body's to assert).
func checkRecovered(t *testing.T, c map[string]int64) {
	t.Helper()
	if c["pure_tp_drops_injected_total"] == 0 {
		t.Error("fault plan injected no drops; the test exercised nothing")
	}
	if c["pure_tp_retransmits_total"] == 0 {
		t.Error("drops were injected but nothing was retransmitted")
	}
}

// TestFaultInjectionFromPublicAPI: a cross-node stream over 10%-lossy links,
// configured through nothing but the public TransportConfig.Faults, still
// delivers every message exactly once and in order.
func TestFaultInjectionFromPublicAPI(t *testing.T) {
	c := puretest.RunNodes(t, twoNodes(), pure.TransportFaults{Seed: 11, DropProb: 0.10}, func(r *pure.Rank) {
		w := r.World()
		w.Barrier() // the link is up: what follows is transmitted (and dropped), not replayed on connect
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
		// close-time drain resends is counted too.
	})
	if c["pure_tp_retransmits_total"] == 0 {
		t.Fatal("10% drops but zero retransmits recorded")
	}
}

// TestChaosRMARemotePutLossy drives remote Put/Accumulate traffic over
// 20%-lossy links across several seeds: every frame must be applied exactly once
// (exact final sums), and recovery must be visible in the link counters.
func TestChaosRMARemotePutLossy(t *testing.T) {
	const rounds = 30
	for _, seed := range puretest.ChaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := puretest.RunNodes(t, twoNodes(), puretest.Lossy(seed, 0.20), func(r *pure.Rank) {
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
	for _, seed := range puretest.ChaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := puretest.RunNodes(t, twoNodes(), puretest.Lossy(seed, 0.20), func(r *pure.Rank) {
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
