//go:build purecheck

// Model tests for the work-stealing task scheduler: every chunk of an
// execution must run exactly once, no matter how steals interleave with
// the owner's own allocation loop or with the task closing.
package check

import (
	"fmt"
	"testing"

	"repro/internal/sched"
)

// schedStealThreads builds one schedule's workload: the owner in slot 0
// runs `runs` consecutive task executions of nchunks chunks each while
// nthieves thief threads make bounded TrySteal probes throughout.  Every
// chunk must execute exactly once per run, the owner/stolen stats must
// add up, and a thief holding a stale exec pointer from an earlier run
// must never re-execute anything (the fresh-exec-per-Run guarantee).
func schedStealThreads(cfg sched.Config, nthieves, runs int, nchunks int64, attempts int) Threads {
	s := sched.New(cfg)
	counts := make([][]int, runs) // counts[run][chunk] = times executed
	for r := range counts {
		counts[r] = make([]int, nchunks)
	}
	stats := make([]sched.RunStats, runs)
	thieves := make([]*sched.Thief, nthieves)
	fns := make([]func(), 1+nthieves)
	names := make([]string, 1+nthieves)
	names[0] = "owner"
	fns[0] = func() {
		for r := 0; r < runs; r++ {
			r := r
			stats[r] = s.Run(0, nchunks, func(start, end int64, extra any) {
				for c := start; c < end; c++ {
					counts[r][c]++
				}
			}, nil, Wait)
		}
	}
	for i := 0; i < nthieves; i++ {
		i := i
		names[1+i] = fmt.Sprintf("thief%d", i+1)
		fns[1+i] = func() {
			th := s.NewThief(1 + i)
			thieves[i] = th
			for a := 0; a < attempts; a++ {
				th.TrySteal() // at least one schedpoint per probe
			}
		}
	}
	return Threads{Names: names, Fns: fns, Final: func() error {
		var stolen int64
		for r := 0; r < runs; r++ {
			for c, n := range counts[r] {
				if n != 1 {
					return fmt.Errorf("run %d chunk %d executed %d times", r, c, n)
				}
			}
			if stats[r].OwnerChunks+stats[r].StolenChunks != nchunks {
				return fmt.Errorf("run %d stats %+v do not sum to %d chunks", r, stats[r], nchunks)
			}
			stolen += stats[r].StolenChunks
		}
		var thiefTotal int64
		for _, th := range thieves {
			if th != nil {
				thiefTotal += th.Stolen
			}
		}
		if thiefTotal != stolen {
			return fmt.Errorf("thieves report %d stolen chunks, owner stats report %d", thiefTotal, stolen)
		}
		return nil
	}}
}

// TestCheckSchedExactlyOnce drives the exactly-once invariant under every
// victim policy, including the steal-vs-complete race on the active_tasks
// slot (a thief that loaded the exec pointer just before the owner closes
// the task must find the chunk counter exhausted, never a live chunk).
func TestCheckSchedExactlyOnce(t *testing.T) {
	policies := []struct {
		name string
		cfg  sched.Config
	}{
		{"RandomSteal", sched.Config{Slots: 3, Policy: sched.RandomSteal}},
		{"NUMAAwareSteal", sched.Config{Slots: 3, Policy: sched.NUMAAwareSteal, SocketOf: []int{0, 0, 1}}},
		{"StickySteal", sched.Config{Slots: 3, Policy: sched.StickySteal}},
	}
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) {
			hook(t)
			rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
				return schedStealThreads(p.cfg, 2, 1, 4, 6)
			})
			if rep.Failed {
				t.Fatalf("%s: %s", p.name, rep.Error())
			}
		})
	}
}

// TestCheckSchedStickyAcrossRuns runs two consecutive executions under
// StickySteal: a thief's cached lastExec from run 1 goes stale when run 2
// opens a fresh exec in the same slot, and the sticky fast path must
// detect the swap (pointer inequality) rather than grab from the dead
// execution.
func TestCheckSchedStickyAcrossRuns(t *testing.T) {
	hook(t)
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, func() Threads {
		return schedStealThreads(sched.Config{Slots: 3, Policy: sched.StickySteal}, 2, 2, 3, 10)
	})
	if rep.Failed {
		t.Fatalf("sticky across runs: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckSchedExhaustive explores every schedule of the smallest
// interesting configuration: one owner, one thief, two chunks.  All conds
// here are pure (the straggler wait polls the done counter), so bounded
// exhaustive exploration is sound.
func TestCheckSchedExhaustive(t *testing.T) {
	hook(t)
	rep := Exhaust(0, 0, func() Threads {
		return schedStealThreads(sched.Config{Slots: 2, Policy: sched.RandomSteal}, 1, 1, 2, 3)
	})
	if rep.Failed {
		t.Fatalf("sched (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}
