package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file is the robustness suite: watchdog hang diagnosis, panic
// containment and cooperative abort, and runs over lossy links (in-process
// nodes with transport.Faults; see nodes_test.go).  The TestChaos* subset is
// what `make chaos` runs under -race across several seeds.

func asRunError(t *testing.T, err error) *RunError {
	t.Helper()
	if err == nil {
		t.Fatal("want *RunError, got nil")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	return re
}

// ---- Watchdog: deadlock and stall diagnosis ----

func TestWatchdogDeadlockRing(t *testing.T) {
	// Every rank receives from its left neighbor and nobody ever sends: the
	// canonical 4-cycle.  The watchdog must name it within HangTimeout.
	const n = 4
	start := time.Now()
	err := Run(Config{NRanks: n, HangTimeout: 150 * time.Millisecond}, func(r *Rank) {
		buf := make([]byte, 8)
		r.World().Recv(buf, (r.ID()+n-1)%n, 7)
	})
	re := asRunError(t, err)
	if re.Cause != CauseDeadlock {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseDeadlock, err)
	}
	if len(re.Cycle) != n {
		t.Fatalf("cycle = %v, want all %d ranks", re.Cycle, n)
	}
	if re.Cycle[0] != 0 {
		t.Fatalf("cycle = %v, want rotation starting at rank 0", re.Cycle)
	}
	if len(re.Blocked) != n {
		t.Fatalf("blocked = %d ranks, want %d", len(re.Blocked), n)
	}
	for _, b := range re.Blocked {
		if b.Wait == nil || b.Wait.Kind != WaitP2PRecv {
			t.Fatalf("rank %d wait = %v, want p2p-recv", b.Rank, b.Wait)
		}
		if want := (b.Rank + n - 1) % n; b.Wait.Peer != want {
			t.Fatalf("rank %d waits on %d, want %d", b.Rank, b.Wait.Peer, want)
		}
	}
	for _, s := range []string{"deadlock", "wait-for cycle", "rank 0", "p2p-recv", "tag 7"} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error text missing %q:\n%v", s, err)
		}
	}
	// "within HangTimeout" with slack for the detection tick and CI noise.
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadlock detection took %v", took)
	}
}

func TestWatchdogUnmatchedRecvStall(t *testing.T) {
	// Rank 1 posts a receive nobody matches while rank 0 exits: global
	// no-progress with no cycle, diagnosed as a stall naming the lost wait.
	err := Run(Config{NRanks: 2, HangTimeout: 150 * time.Millisecond}, func(r *Rank) {
		if r.ID() == 1 {
			buf := make([]byte, 8)
			r.World().Recv(buf, 0, 3)
		}
	})
	re := asRunError(t, err)
	if re.Cause != CauseStall {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseStall, err)
	}
	if len(re.Blocked) != 1 || re.Blocked[0].Rank != 1 {
		t.Fatalf("blocked = %+v, want just rank 1", re.Blocked)
	}
	for _, s := range []string{"stall", "unmatched", "p2p-recv"} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error text missing %q:\n%v", s, err)
		}
	}
}

func TestWatchdogCollectiveStragglerStall(t *testing.T) {
	// Three ranks enter a Barrier, one never does: no peer-directed cycle,
	// and the dump shows who is parked in the collective.
	err := Run(Config{NRanks: 4, HangTimeout: 150 * time.Millisecond}, func(r *Rank) {
		if r.ID() != 3 {
			r.World().Barrier()
		}
	})
	re := asRunError(t, err)
	if re.Cause != CauseStall {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseStall, err)
	}
	if !strings.Contains(err.Error(), "collective barrier") {
		t.Errorf("error text missing collective wait state:\n%v", err)
	}
}

func TestWatchdogDoesNotFireOnProgress(t *testing.T) {
	// A healthy ping-pong far outlasting HangTimeout must complete: every
	// completed wait ticks the progress counter.
	err := Run(Config{NRanks: 2, HangTimeout: 50 * time.Millisecond}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		if r.ID() == 0 {
			// Rank 0 drives the clock and terminates the exchange with a
			// stop sentinel, so the ranks never desynchronize.
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				buf[0] = 0
				w.Send(buf, 1, 0)
				w.Recv(buf, 1, 1)
			}
			buf[0] = 1
			w.Send(buf, 1, 0)
			return
		}
		for {
			w.Recv(buf, 0, 0)
			if buf[0] == 1 {
				return
			}
			w.Send(buf, 0, 1)
		}
	})
	if err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
}

func TestDeadlineAbortsProgressingRun(t *testing.T) {
	// Barriers in a loop make continuous progress, so only the wall-clock
	// deadline can stop them.
	start := time.Now()
	err := Run(Config{NRanks: 4, Deadline: 150 * time.Millisecond}, func(r *Rank) {
		for {
			r.World().Barrier()
		}
	})
	re := asRunError(t, err)
	if re.Cause != CauseDeadline {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseDeadline, err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadline abort took %v", took)
	}
}

// ---- Panic containment and cooperative abort ----

func TestPanicMidCollectiveUnblocksPeers(t *testing.T) {
	// Rank 2 dies before the Allreduce; the others are parked inside the
	// SPTD phase and must unwind instead of spinning forever.  No watchdog:
	// poisoning alone must release them.
	err := Run(Config{NRanks: 4}, func(r *Rank) {
		if r.ID() == 2 {
			panic("rank 2 exploded")
		}
		in, out := f64b(float64(r.ID())), make([]byte, 8)
		r.World().Allreduce(in, out, collective.OpSum, collective.Float64)
	})
	re := asRunError(t, err)
	if re.Cause != CausePanic {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CausePanic, err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Rank != 2 {
		t.Fatalf("failures = %+v, want just rank 2", re.Failures)
	}
	if !strings.Contains(re.Failures[0].Reason, "rank 2 exploded") {
		t.Fatalf("failure reason %q missing panic value", re.Failures[0].Reason)
	}
	if len(re.Blocked) != 3 {
		t.Fatalf("blocked = %+v, want the 3 survivors", re.Blocked)
	}
	for _, b := range re.Blocked {
		if b.Wait == nil || b.Wait.Kind != WaitCollective || b.Wait.Op != "allreduce" {
			t.Fatalf("rank %d wait = %s, want collective allreduce", b.Rank, b.Wait.describe())
		}
	}
}

// TestStolenChunkPanicUnwindsWaitingOwner: a chunk that panics on a thief
// fails the thief's rank, and the owner, left waiting for that chunk in
// Execute's straggler wait, unwinds with a task wait record.  On one
// processor the owner takes chunk 0 before anyone can steal, and chunk 0
// runs until chunk 1 has started elsewhere, so chunk 1 is always stolen.
func TestStolenChunkPanicUnwindsWaitingOwner(t *testing.T) {
	setProcs(t, 1)
	var stolenStarted atomic.Bool
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 1 {
			r.World().Recv(make([]byte, 8), 0, 0) // steals while it waits; never satisfied
			return
		}
		r.NewTask(2, func(start, end int64, _ any) {
			if start == 1 {
				stolenStarted.Store(true)
				panic("stolen chunk exploded")
			}
			for !stolenStarted.Load() {
				runtime.Gosched()
			}
		}).Execute(nil)
	})
	re := asRunError(t, err)
	if re.Cause != CausePanic {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CausePanic, err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Rank != 1 || !strings.Contains(re.Failures[0].Reason, "stolen chunk exploded") {
		t.Fatalf("failures = %+v, want the thief, rank 1", re.Failures)
	}
	if len(re.Blocked) != 1 || re.Blocked[0].Rank != 0 {
		t.Fatalf("blocked = %+v, want the owner, rank 0", re.Blocked)
	}
	if w := re.Blocked[0].Wait; w == nil || w.Kind != WaitTask {
		t.Fatalf("owner wait = %s, want a task wait", w.describe())
	}
}

// TestNestedWaitKeepsThiefRecord: a stolen chunk that blocks inside the
// thief's own wait pushes its record above the thief's and pops it when it
// returns, so an abort after that names the thief's outer wait.  Rank 1
// waits for a message that never comes and steals chunk 1, which receives
// on rank 1's behalf (an inner wait that blocks, then completes); rank 0
// then aborts the run.
func TestNestedWaitKeepsThiefRecord(t *testing.T) {
	setProcs(t, 1) // the owner runs chunk 0, so chunk 1 is stolen
	var thief atomic.Pointer[Rank]
	var stolenStarted, stolenDone atomic.Bool
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		buf := make([]byte, 8)
		if r.ID() == 1 {
			thief.Store(r)
			r.World().Recv(buf, 0, 9) // the outer wait; never satisfied
			return
		}
		r.NewTask(2, func(start, end int64, _ any) {
			if start == 1 {
				stolenStarted.Store(true)
				thief.Load().World().Recv(make([]byte, 8), 0, 7) // the inner wait
				stolenDone.Store(true)
				return
			}
			for !stolenStarted.Load() {
				runtime.Gosched()
			}
			r.World().Send(buf, 1, 7)
			for !stolenDone.Load() {
				runtime.Gosched()
			}
		}).Execute(nil)
		r.Abort(errors.New("done"))
	})
	re := asRunError(t, err)
	if re.Cause != CauseAbort {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseAbort, err)
	}
	if len(re.Blocked) != 1 || re.Blocked[0].Rank != 1 {
		t.Fatalf("blocked = %+v, want the thief, rank 1", re.Blocked)
	}
	if w := re.Blocked[0].Wait; w == nil || w.Kind != WaitP2PRecv || w.Tag != 9 {
		t.Fatalf("thief wait = %s, want its outer receive (p2p-recv, tag 9)", w.describe())
	}
}

func TestAllPanickedRanksReported(t *testing.T) {
	// Every rank fails: the error must list them all, not just the first
	// drained from the channel.
	const n = 4
	err := Run(Config{NRanks: n}, func(r *Rank) {
		panic(fmt.Sprintf("boom %d", r.ID()))
	})
	re := asRunError(t, err)
	if len(re.Failures) != n {
		t.Fatalf("failures = %+v, want all %d ranks", re.Failures, n)
	}
	for i, f := range re.Failures {
		if f.Rank != i || !strings.Contains(f.Reason, fmt.Sprintf("boom %d", i)) {
			t.Fatalf("failure[%d] = %+v", i, f)
		}
	}
}

func TestRankAbort(t *testing.T) {
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 1 {
			r.Abort(errors.New("fatal input"))
		}
		buf := make([]byte, 8)
		r.World().Recv(buf, 1, 0) // would hang; the abort must release it
	})
	re := asRunError(t, err)
	if re.Cause != CauseAbort {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CauseAbort, err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Rank != 1 ||
		!strings.Contains(re.Failures[0].Reason, "fatal input") {
		t.Fatalf("failures = %+v", re.Failures)
	}
}

// TestRankGoexitPoisonsRun: a rank body that ends in runtime.Goexit has
// neither returned nor panicked.  It is a failure that releases its peers
// without a watchdog.  On the first rank, which runs on Run's caller, the
// Goexit unwinds the caller too, but only after the node's other ranks.
func TestRankGoexitPoisonsRun(t *testing.T) {
	t.Run("rank1", func(t *testing.T) {
		errc := make(chan error, 1)
		go func() {
			errc <- Run(Config{NRanks: 2}, func(r *Rank) {
				if r.ID() == 1 {
					runtime.Goexit()
				}
				r.World().Recv(make([]byte, 8), 1, 0) // would hang; the Goexit must release it
			})
		}()
		select {
		case err := <-errc:
			re := asRunError(t, err)
			if len(re.Failures) != 1 || re.Failures[0].Rank != 1 || re.Failures[0].Reason != "runtime.Goexit" {
				t.Fatalf("failures = %+v, want rank 1's runtime.Goexit", re.Failures)
			}
		case <-time.After(time.Second):
			t.Fatal("Run did not return within 1 s of rank 1's Goexit")
		}
	})
	t.Run("rank0", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		var peerUnwound, returned, peerDoneAtExit atomic.Bool
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			defer func() { peerDoneAtExit.Store(peerUnwound.Load()) }()
			Run(Config{NRanks: 2}, func(r *Rank) {
				if r.ID() == 0 {
					runtime.Goexit()
				}
				defer peerUnwound.Store(true)
				r.World().Recv(make([]byte, 8), 0, 0)
			})
			returned.Store(true)
		}()
		select {
		case <-exited:
		case <-time.After(time.Second):
			t.Fatal("the caller of Run did not exit within 1 s of rank 0's Goexit")
		}
		if returned.Load() {
			t.Fatal("Run returned to a caller whose rank called runtime.Goexit")
		}
		if !peerDoneAtExit.Load() {
			t.Fatal("the caller exited before rank 1 unwound")
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines: %d before, %d after", baseline, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestPanicUnblocksPBQBackpressure(t *testing.T) {
	// Rank 0 fills rank 1's PBQ until it stalls in backpressure; rank 1
	// panics without ever receiving.  The stalled send must unwind.
	err := Run(Config{NRanks: 2, PBQSlots: 4}, func(r *Rank) {
		if r.ID() == 1 {
			panic("receiver died")
		}
		buf := make([]byte, 64)
		for i := 0; i < 1000; i++ {
			r.World().Send(buf, 1, 0)
		}
	})
	re := asRunError(t, err)
	if len(re.Failures) != 1 || re.Failures[0].Rank != 1 {
		t.Fatalf("failures = %+v, want just rank 1", re.Failures)
	}
}

func TestPanicDuringTaskExecute(t *testing.T) {
	// The task owner panics mid-execution while a peer is blocked in a
	// receive (and thus potentially stealing); everyone must come home.
	err := Run(Config{NRanks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			task := r.NewTask(8, func(start, end int64, extra any) {
				if start == 0 {
					panic("task body bug")
				}
			})
			task.Execute(nil)
			return
		}
		buf := make([]byte, 8)
		r.World().Recv(buf, 0, 0)
	})
	re := asRunError(t, err)
	if re.Cause != CausePanic {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CausePanic, err)
	}
}

func TestNilRankHarvestAfterBootstrapPanic(t *testing.T) {
	// A rank that dies inside newRank leaves ranks[id] == nil; the stats and
	// obs harvests must tolerate the hole (regression: they dereferenced it).
	testNewRankHook = func(id int) {
		if id == 2 {
			panic("bootstrap failure")
		}
	}
	defer func() { testNewRankHook = nil }()

	met := obs.NewMetrics()
	stats, err := RunWithStats(Config{NRanks: 4, Metrics: met}, func(r *Rank) {
		buf := make([]byte, 8)
		r.World().Recv(buf, (r.ID()+3)%4, 0) // parked until the poison spreads
	})
	re := asRunError(t, err)
	if len(re.Failures) != 1 || re.Failures[0].Rank != 2 ||
		!strings.Contains(re.Failures[0].Reason, "bootstrap failure") {
		t.Fatalf("failures = %+v", re.Failures)
	}
	if len(stats) != 4 {
		t.Fatalf("stats len = %d, want 4", len(stats))
	}
	if stats[2].Rank != 2 || stats[2].Messages() != 0 {
		t.Fatalf("dead rank stats = %+v, want zeroed placeholder", stats[2])
	}
}

func TestAbortEmitsTraceEvent(t *testing.T) {
	tr := obs.NewTrace(2, 0)
	err := Run(Config{NRanks: 2, Trace: tr}, func(r *Rank) {
		if r.ID() == 0 {
			panic("die")
		}
		buf := make([]byte, 8)
		r.World().Recv(buf, 0, 0)
	})
	asRunError(t, err)
	var unwinds int
	for _, e := range tr.Events() {
		if e.Kind == obs.KAbortUnwind {
			unwinds++
			if e.Rank != 1 {
				t.Fatalf("unwind event from rank %d, want 1", e.Rank)
			}
			if e.Arg != int64(WaitP2PRecv) {
				t.Fatalf("unwind arg = %d, want %d (p2p-recv)", e.Arg, WaitP2PRecv)
			}
		}
	}
	if unwinds != 1 {
		t.Fatalf("unwind events = %d, want 1 (the blocked survivor)", unwinds)
	}
}

// ---- Lossy links (the `make chaos` subset; more in nodes_test.go) ----

// TestChaosLossyAllreduce runs cross-node allreduces — leader-tree traffic of
// two ranks per node sharing one link — over links whose first transmissions
// reset the connection and whose arrivals are delayed, and checks the results
// are exact and the recovery visible in the harvested link counters.
func TestChaosLossyAllreduce(t *testing.T) {
	plans, err := transport.ChaosFaults(0.15)
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range plans {
		seed := faults.Seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const rounds = 40
			cfg := nodesConfig(2, 2)
			cfg.Metrics = obs.NewMetrics()
			cfg.Transport = &transport.Config{Faults: faults}
			err := Run(cfg, func(r *Rank) {
				w := r.World()
				out := make([]byte, 8)
				for i := 0; i < rounds; i++ {
					in := f64b(float64(r.ID() + i))
					w.Allreduce(in, out, collective.OpSum, collective.Float64)
					want := float64(0+1+2+3) + 4*float64(i)
					if got := bToF64(out)[0]; got != want {
						r.Abort(fmt.Errorf("round %d: allreduce = %v, want %v", i, got, want))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if sumCounter("pure_tp_resets_injected_total", cfg.Metrics) == 0 {
				t.Fatalf("seed %d: fault plan injected no resets; the test exercised nothing", seed)
			}
			if sumCounter("pure_tp_retransmits_total", cfg.Metrics) == 0 {
				t.Fatalf("seed %d: resets were injected but no reconnect replayed anything", seed)
			}
		})
	}
}

// TestChaosDupsDiscarded checks exactly-once delivery through the whole
// runtime on a ping-pong whose arrivals are delayed and whose first
// transmissions reset the connection: every payload must arrive exactly
// once, in order, across the reconnects and their replays.  (A strict
// ping-pong has nothing in flight when a reset lands, so no replay overlaps a
// delivery here; the receiver's duplicate discard is pinned by
// TestLinkResentWindowDiscardedAsDuplicates.)
func TestChaosDupsDiscarded(t *testing.T) {
	const rounds = 50
	cfg := nodesConfig(2, 1)
	cfg.Metrics = obs.NewMetrics()
	cfg.Transport = &transport.Config{
		Faults: transport.Faults{Seed: 7, ResetProb: 0.15, DelayProb: 0.5, DelayMax: 10 * time.Millisecond},
	}
	err := Run(cfg, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 16)
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				buf[0] = byte(i)
				w.Send(buf, 1, 0)
				w.Recv(buf, 1, 1)
			} else {
				w.Recv(buf, 0, 0)
				w.Send(buf, 0, 1)
			}
			if buf[0] != byte(i) {
				r.Abort(fmt.Errorf("round %d carried message %d (dup or loss leaked through)", i, buf[0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sumCounter("pure_tp_resets_injected_total", cfg.Metrics) == 0 {
		t.Fatal("fault plan injected no resets; the test exercised nothing")
	}
	if sumCounter("pure_tp_retransmits_total", cfg.Metrics) == 0 {
		t.Fatal("resets were injected but no reconnect replayed anything")
	}
}
