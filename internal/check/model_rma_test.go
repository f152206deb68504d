//go:build purecheck

// Model tests for the one-sided (RMA) epoch primitives under the
// deterministic schedule explorer: fence visibility, notify ordering,
// PSCW round matching, and Accumulate atomicity.
package check

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/collective"
	"repro/internal/rma"
)

// rmaFenceThreads: each rank Puts a distinct per-epoch value into its
// right neighbor's window, fences, and then must observe its left
// neighbor's value in its own window — the fence's happens-before edge is
// the only thing making that read safe.
func rmaFenceThreads(n, epochs int) Threads {
	w := rma.NewWindow(n)
	for tid := 0; tid < n; tid++ {
		w.Attach(tid, make([]byte, 8))
	}
	errs := make([]error, n)
	fns := make([]func(), n)
	for tid := 0; tid < n; tid++ {
		tid := tid
		fns[tid] = func() {
			for e := 1; e <= epochs; e++ {
				want := int64(1000*e + (tid+n-1)%n) // left neighbor's value
				put := codec.Int64Bytes([]int64{int64(1000*e + tid)})
				// Fence rounds must advance monotonically, so epoch e uses
				// rounds 2e-1 (publish the Puts) and 2e (close the epoch so
				// the next epoch's Puts cannot land before everyone reads).
				w.CopyIn((tid+1)%n, 0, put)
				w.FenceArrive(tid, uint64(2*e-1))
				Wait(func() bool { return w.FenceReached(uint64(2*e - 1)) })
				got := make([]int64, 1)
				codec.GetInt64s(got, w.Buffer(tid))
				if got[0] != want {
					errs[tid] = fmt.Errorf("rank %d epoch %d: window holds %d want %d", tid, e, got[0], want)
					return
				}
				w.FenceArrive(tid, uint64(2*e))
				Wait(func() bool { return w.FenceReached(uint64(2 * e)) })
			}
		}
	}
	return Threads{Fns: fns, Final: func() error {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}}
}

// TestCheckRMAFenceVisibility: after a fence, every rank must see the
// bytes its peer Put during the closing epoch, in every explored schedule.
func TestCheckRMAFenceVisibility(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return rmaFenceThreads(3, 2)
	})
	if rep.Failed {
		t.Fatalf("RMA fence: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckRMAFenceExhaustive explores every schedule of the 2-rank,
// 1-epoch fence exchange (the fence conds are pure loads, so bounded
// exhaustive exploration is sound here).
func TestCheckRMAFenceExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads { return rmaFenceThreads(2, 1) })
	if rep.Failed {
		t.Fatalf("RMA fence (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// TestCheckRMANotifyOrdering: a producer streams values through the
// consumer's window with Put+Notify; the consumer must never read a value
// before the matching notification and must see exactly the value the
// notification covers.  The consumer acks on a second slot so the producer
// cannot overwrite an unread value.
func TestCheckRMANotifyOrdering(t *testing.T) {
	hook(t)
	const k = 3
	mk := func() Threads {
		w := rma.NewWindow(2)
		w.Attach(0, make([]byte, 8))
		w.Attach(1, make([]byte, 8))
		var err error
		return Threads{
			Names: []string{"producer", "consumer"},
			Fns: []func(){
				func() {
					for i := 1; i <= k; i++ {
						w.CopyIn(1, 0, codec.Int64Bytes([]int64{int64(10 * i)}))
						w.Notify(1, 0)
						// Wait for the consumer's ack before reusing the slot.
						Wait(func() bool { return w.NotifyCount(0, 1) >= uint64(i) })
					}
				},
				func() {
					for i := 1; i <= k; i++ {
						Wait(func() bool { return w.NotifyCount(1, 0) >= uint64(i) })
						got := make([]int64, 1)
						codec.GetInt64s(got, w.Buffer(1))
						if got[0] != int64(10*i) {
							err = fmt.Errorf("notification %d delivered %d want %d", i, got[0], 10*i)
							return
						}
						w.Notify(0, 1) // ack
					}
				},
			},
			Final: func() error { return err },
		}
	}
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("RMA notify: %s", rep.Error())
	}
}

// TestCheckRMAPSCWRoundMatching: two origins expose-epoch into one target
// over two rounds.  The target must only read after both origins complete,
// and each round's Posts/Completes must pair up (no origin may write into
// an unposted epoch, no round-r+1 write may land before the target drains
// round r).
func TestCheckRMAPSCWRoundMatching(t *testing.T) {
	hook(t)
	const rounds = 2
	mk := func() Threads {
		w := rma.NewWindow(3)
		for tid := 0; tid < 3; tid++ {
			w.Attach(tid, make([]byte, 16))
		}
		var err error
		origin := func(tid int) func() {
			return func() {
				for r := 1; r <= rounds; r++ {
					Wait(func() bool { return w.Posted(0, uint64(r)) })
					// Disjoint 8-byte halves of the target window.
					w.CopyIn(0, (tid-1)*8, codec.Int64Bytes([]int64{int64(100*r + tid)}))
					w.Complete(tid, 0, uint64(r))
					// Origins must not start round r+1 writes until the
					// target re-posts; the Posted wait above provides that.
				}
			}
		}
		target := func() {
			for r := 1; r <= rounds; r++ {
				w.Post(0, uint64(r))
				Wait(func() bool { return w.Completed(1, 0, uint64(r)) && w.Completed(2, 0, uint64(r)) })
				got := make([]int64, 2)
				codec.GetInt64s(got, w.Buffer(0))
				if got[0] != int64(100*r+1) || got[1] != int64(100*r+2) {
					err = fmt.Errorf("round %d: target window %v want [%d %d]", r, got, 100*r+1, 100*r+2)
					return
				}
			}
		}
		return Threads{
			Names: []string{"target", "origin1", "origin2"},
			Fns:   []func(){target, origin(1), origin(2)},
			Final: func() error { return err },
		}
	}
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("RMA PSCW: %s", rep.Error())
	}
}

// TestCheckRMAAccumulateAtomicity: three ranks concurrently fold
// increments into one shared window cell through AccumulateLocal; the
// per-target spinlock must make every read-modify-write atomic so no
// increment is ever lost.  PCT only: the TryLock wait cond has a side
// effect (acquiring the lock), which the exhaustive mode's replay-purity
// requirement disallows but PCT's probe-then-run discipline tolerates.
func TestCheckRMAAccumulateAtomicity(t *testing.T) {
	hook(t)
	const perThread = 2
	mk := func() Threads {
		w := rma.NewWindow(3)
		for tid := 0; tid < 3; tid++ {
			w.Attach(tid, make([]byte, 8))
		}
		fns := make([]func(), 3)
		for tid := 0; tid < 3; tid++ {
			tid := tid
			fns[tid] = func() {
				delta := codec.Int64Bytes([]int64{int64(tid + 1)})
				for i := 0; i < perThread; i++ {
					w.AccumulateLocal(0, 0, delta, collective.OpSum, collective.Int64, Wait)
				}
			}
		}
		return Threads{Fns: fns, Final: func() error {
			got := make([]int64, 1)
			codec.GetInt64s(got, w.Buffer(0))
			want := int64(perThread * (1 + 2 + 3))
			if got[0] != want {
				return fmt.Errorf("lost accumulate: cell holds %d want %d", got[0], want)
			}
			return nil
		}}
	}
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("RMA accumulate: %s", rep.Error())
	}
}
