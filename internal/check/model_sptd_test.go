//go:build purecheck

// Model tests for the SPTD collective structures (leader election,
// dropboxes, partitioned reducer) under the deterministic schedule explorer.
package check

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/collective"
)

// sptdAllreduceThreads runs `rounds` all-reduce rounds over n threads with
// distinct per-thread/per-round contributions; every thread must observe the
// exact sum every round (no lost contribution, no stale result reuse).
func sptdAllreduceThreads(n, rounds int) Threads {
	s := collective.NewSPTD(n, 64)
	errs := make([]error, n)
	fns := make([]func(), n)
	for tid := 0; tid < n; tid++ {
		tid := tid
		fns[tid] = func() {
			for r := 1; r <= rounds; r++ {
				in := codec.Int64Bytes([]int64{int64(100*r + tid), int64(tid)})
				out := make([]byte, len(in))
				s.Allreduce(tid, in, out, collective.OpSum, collective.Int64, nil, Wait)
				got := make([]int64, 2)
				codec.GetInt64s(got, out)
				wantA := int64(0)
				wantB := int64(0)
				for t := 0; t < n; t++ {
					wantA += int64(100*r + t)
					wantB += int64(t)
				}
				if got[0] != wantA || got[1] != wantB {
					errs[tid] = fmt.Errorf("thread %d round %d: got %v want [%d %d]", tid, r, got, wantA, wantB)
					return
				}
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

// TestCheckSPTDAllreduceNoLostContribution: the sequence-numbered dropbox
// protocol must deliver every thread's contribution to every thread's
// result in every explored schedule, across multiple reuse rounds (the
// leader writes the shared result only after every box of the new round,
// which each thread fills only once it is done with the last result).
func TestCheckSPTDAllreduceNoLostContribution(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return sptdAllreduceThreads(3, 2)
	})
	if rep.Failed {
		t.Fatalf("SPTD allreduce: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckSPTDAllreduceExhaustive explores every schedule of a 2-thread,
// 3-round all-reduce: the leader overwrites the result only after the other
// thread's box for the new round, so a thread still copying round r-1's
// result out can never see round r's bytes.
func TestCheckSPTDAllreduceExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads { return sptdAllreduceThreads(2, 3) })
	if rep.Failed {
		t.Fatalf("SPTD allreduce (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// TestCheckSPTDMixedKinds runs every op kind back to back on one structure,
// twice over: Allreduce, Reduce to root 2, Broadcast from root 1, Allreduce,
// Barrier.  The result is guarded by a different proof depending on who
// writes it next: the leader's next fold waits for every box of the new
// round, a Broadcast's root for every thread's ack of the last one.  Every
// thread checks every value it receives, and the barrier its separation.
func TestCheckSPTDMixedKinds(t *testing.T) {
	hook(t)
	const n = 3
	mk := func() Threads {
		s := collective.NewSPTD(n, 64)
		arrived := make([]int, n)
		errs := make([]error, n)
		fns := make([]func(), n)
		for tid := 0; tid < n; tid++ {
			tid := tid
			fns[tid] = func() {
				got := make([]int64, 1)
				out := make([]byte, 8)
				// sum is the all-reduce of round k's contributions 100k+t.
				sum := func(k int) int64 { return int64(n*100*k + n*(n-1)/2) }
				check := func(k int, want int64) bool {
					if codec.GetInt64s(got, out); got[0] != want {
						errs[tid] = fmt.Errorf("thread %d round %d: got %d want %d", tid, k, got[0], want)
						return false
					}
					return true
				}
				for k := 1; k <= 10; k++ {
					in := codec.Int64Bytes([]int64{int64(100*k + tid)})
					switch (k - 1) % 5 {
					case 0, 3:
						s.Allreduce(tid, in, out, collective.OpSum, collective.Int64, nil, Wait)
						if !check(k, sum(k)) {
							return
						}
					case 1:
						s.Reduce(tid, 2, in, out, collective.OpSum, collective.Int64, nil, Wait)
						if tid == 2 && !check(k, sum(k)) {
							return
						}
					case 2:
						copy(out, in)
						s.Broadcast(tid, 1, out, nil, Wait)
						if !check(k, int64(100*k+1)) {
							return
						}
					case 4:
						arrived[tid] = k
						Yield("barrier:arrived")
						s.Barrier(tid, Wait)
						for u := 0; u < n; u++ {
							if arrived[u] < k {
								errs[tid] = fmt.Errorf("thread %d left barrier round %d before thread %d arrived", tid, k, u)
								return
							}
						}
					}
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
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("SPTD mixed kinds: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// sptdBarrierThreads checks the barrier's separation invariant: no thread
// may leave barrier round r before every thread has arrived at round r.
// Arrivals are recorded in per-thread slots before the barrier call; on
// exit every slot must already show the current round.
func sptdBarrierThreads(n, rounds int, mkBarrier func() func(tid int)) Threads {
	barrier := mkBarrier()
	arrived := make([]int, n) // arrived[t] = latest round t has entered
	errs := make([]error, n)
	fns := make([]func(), n)
	for tid := 0; tid < n; tid++ {
		tid := tid
		fns[tid] = func() {
			for r := 1; r <= rounds; r++ {
				arrived[tid] = r
				Yield("barrier:arrived")
				barrier(tid)
				for t := 0; t < n; t++ {
					if arrived[t] < r {
						errs[tid] = fmt.Errorf("thread %d escaped round %d before thread %d arrived (saw round %d)", tid, r, t, arrived[t])
						return
					}
				}
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

// TestCheckSPTDBarrierSequenceInvariant covers the static-leader SPTD
// barrier (the paper's chosen design).
func TestCheckSPTDBarrierSequenceInvariant(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		s := collective.NewSPTD(3, 8)
		return sptdBarrierThreads(3, 2, func() func(int) {
			return func(tid int) { s.Barrier(tid, Wait) }
		})
	})
	if rep.Failed {
		t.Fatalf("SPTD barrier: %s", rep.Error())
	}
}

// TestCheckSPTDBarrierExhaustive explores every schedule of the 2-thread,
// 2-round barrier.
func TestCheckSPTDBarrierExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads {
		s := collective.NewSPTD(2, 8)
		return sptdBarrierThreads(2, 2, func() func(int) {
			return func(tid int) { s.Barrier(tid, Wait) }
		})
	})
	if rep.Failed {
		t.Fatalf("SPTD barrier (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}

// TestCheckCASBarrierElection covers the rejected CAS "first thread in"
// leader election retained for the ablation benchmarks — its per-round
// leader race is exactly the kind of protocol the checker exists for.
func TestCheckCASBarrierElection(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		b := collective.NewCASBarrier(3)
		return sptdBarrierThreads(3, 2, func() func(int) {
			return func(tid int) { b.Wait(tid, Wait) }
		})
	})
	if rep.Failed {
		t.Fatalf("CAS barrier: %s", rep.Error())
	}
}

// TestCheckSPTDReduceBroadcast drives the remaining dropbox shapes: a
// rooted reduce (root 1, a non-leader) followed by a broadcast from root 2,
// checking payload integrity and round lockstep.
func TestCheckSPTDReduceBroadcast(t *testing.T) {
	hook(t)
	mk := func() Threads {
		s := collective.NewSPTD(3, 64)
		errs := make([]error, 3)
		fns := make([]func(), 3)
		for tid := 0; tid < 3; tid++ {
			tid := tid
			fns[tid] = func() {
				in := codec.Int64Bytes([]int64{int64(tid + 1)})
				out := make([]byte, len(in))
				s.Reduce(tid, 1, in, out, collective.OpSum, collective.Int64, nil, Wait)
				if tid == 1 {
					got := make([]int64, 1)
					codec.GetInt64s(got, out)
					if got[0] != 6 {
						errs[tid] = fmt.Errorf("reduce at root 1: got %d want 6", got[0])
						return
					}
				}
				buf := codec.Int64Bytes([]int64{int64(99)})
				if tid != 2 {
					buf = codec.Int64Bytes([]int64{int64(-1)})
				}
				s.Broadcast(tid, 2, buf, nil, Wait)
				got := make([]int64, 1)
				codec.GetInt64s(got, buf)
				if got[0] != 99 {
					errs[tid] = fmt.Errorf("broadcast at thread %d: got %d want 99", tid, got[0])
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
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("SPTD reduce/broadcast: %s", rep.Error())
	}
}

// TestCheckSPTDReduceBoxReuse: a thread that is neither leader nor root
// leaves Reduce as soon as its dropbox is published, so its next collective
// may reach the box while the leader is still folding the previous round out
// of it.  Reduce into Reduce and Reduce into Allreduce, with per-round
// distinct contributions: every result must be its own round's sum in every
// explored schedule.
func TestCheckSPTDReduceBoxReuse(t *testing.T) {
	hook(t)
	const n, root = 3, 1
	sum := func(round int) int64 { return int64(n*100*round + n*(n-1)/2) }
	mk := func() Threads {
		s := collective.NewSPTD(n, 64)
		errs := make([]error, n)
		fns := make([]func(), n)
		for tid := 0; tid < n; tid++ {
			tid := tid
			fns[tid] = func() {
				got := make([]int64, 1)
				out := make([]byte, 8)
				for round := 1; round <= 3; round++ {
					in := codec.Int64Bytes([]int64{int64(100*round + tid)})
					if round < 3 {
						s.Reduce(tid, root, in, out, collective.OpSum, collective.Int64, nil, Wait)
						if tid != root {
							continue
						}
					} else {
						s.Allreduce(tid, in, out, collective.OpSum, collective.Int64, nil, Wait)
					}
					if codec.GetInt64s(got, out); got[0] != sum(round) {
						errs[tid] = fmt.Errorf("thread %d round %d: got %d want %d", tid, round, got[0], sum(round))
						return
					}
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
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("SPTD reduce box reuse: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckPartitionedReducer: the large-data all-reduce's publish/fold/
// ack protocol, with a payload sized so the cacheline chunking leaves one
// thread with no fold work (the asymmetric case).
func TestCheckPartitionedReducer(t *testing.T) {
	hook(t)
	mk := func() Threads {
		p := collective.NewPartitionedReducer(3, 128)
		errs := make([]error, 3)
		fns := make([]func(), 3)
		for tid := 0; tid < 3; tid++ {
			tid := tid
			fns[tid] = func() {
				for r := 1; r <= 2; r++ {
					vals := make([]float64, 16) // 128 B = 2 cachelines over 3 threads
					for i := range vals {
						vals[i] = float64(tid + r)
					}
					in := codec.Float64Bytes(vals)
					out := make([]byte, len(in))
					p.Allreduce(tid, in, out, collective.OpSum, collective.Float64, nil, Wait)
					got := make([]float64, 16)
					codec.GetFloat64s(got, out)
					want := float64((0 + r) + (1 + r) + (2 + r))
					for i, v := range got {
						if v != want {
							errs[tid] = fmt.Errorf("thread %d round %d elem %d: got %v want %v", tid, r, i, v, want)
							return
						}
					}
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
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("partitioned reducer: %s", rep.Error())
	}
}
