package livechaos

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	shmemapp "repro/internal/apps/shmem"
	"repro/pure"
)

// The PGAS chaos workload: the remote-atomic histogram from
// internal/apps/shmem, run as one real process per node with PURE_WORKLOAD=
// shmem-hist.  Unlike the Allreduce loop, the hot path here is one-sided —
// ranks fire AtomicAdds into each other's symmetric heaps and only meet at
// the per-round verification barrier — so a peer death must be surfaced out
// of the RMA progress engine, not just out of a collective.

// histChecksum folds a bin vector into the order-independent checksum the
// histogram app reports (sum of count[b]*(b+1)).
func histChecksum(bins []int64) int64 {
	var sum int64
	for b, v := range bins {
		sum += v * int64(b+1)
	}
	return sum
}

// shmemHistCfg is the shared workload shape; the launcher and the worker
// must agree on it so the test can recompute the per-round reference
// checksums the worker prints.
func shmemHistCfg(rounds, items int) shmemapp.HistConfig {
	return shmemapp.HistConfig{Bins: 128, Items: items, Rounds: rounds, Seed: 9}
}

// shmemHistMain is the worker body for PURE_WORKLOAD=shmem-hist: one rank
// per node runs the round-verified histogram, printing a "ROUND rd EXACT
// sum=..." proof line after each early round's barrier + oracle comparison
// (every rank prints, so every surviving process carries the proof).  Exit
// codes match workerMain: 0 success, 3 peer node died, 1 anything else.
func shmemHistMain(tcfg *pure.TransportConfig) {
	nodes := len(tcfg.Addrs)
	rounds := envInt("PURE_HIST_ROUNDS", 3)
	items := envInt("PURE_HIST_ITEMS", 2048)
	cfg := pure.Config{
		NRanks:       nodes,
		Spec:         pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: 1, ThreadsPerCore: 1},
		RanksPerNode: 1,
		Transport:    tcfg,
		HangTimeout:  time.Duration(envInt("PURE_HANG_MS", 20000)) * time.Millisecond,
		Metrics:      workerMetrics,
	}
	hcfg := shmemHistCfg(rounds, items)
	err := pure.Run(cfg, func(r *pure.Rank) {
		h := hcfg
		h.OnRound = func(rd int, exact bool) {
			if rd >= 5 {
				return // a kill run asks for millions of rounds; don't flood stdout
			}
			state := "INEXACT"
			var sum int64
			if exact {
				state = "EXACT"
				sum = histChecksum(shmemapp.HistReference(hcfg, nodes, rd+1))
			}
			fmt.Printf("ROUND %d %s sum=%#x\n", rd, state, sum)
			if rd == 0 {
				fmt.Println("LOOP")
			}
		}
		res, herr := shmemapp.RunHistogram(r, h)
		if herr != nil {
			r.Abort(herr)
			return
		}
		if !res.Exact {
			panic(fmt.Sprintf("inexact histogram: updates=%d sum=%#x", res.Updates, res.Sum))
		}
		fmt.Printf("OK updates=%d sum=%#x\n", res.Updates, res.Sum)
	})
	exitRun(err)
}

// TestChaosLiveShmemKill SIGKILLs one of three real processes mid-histogram.
// Every survivor must unwind its one-sided RMA traffic with a structured
// node-dead failure naming the dead node, and must already have printed a
// checksum-verified round proof — evidence the partial totals that survived
// the crash were bit-exact before it.
func TestChaosLiveShmemKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and waits on failure detection")
	}
	const hang = 20 * time.Second
	procs := launchWorld(t, 3, []string{
		"PURE_WORKLOAD=shmem-hist",
		"PURE_HIST_ROUNDS=1000000", // far more than will run: the kill cuts it short
		"PURE_HIST_ITEMS=2048",
		"PURE_HB_MS=5",
		"PURE_DEAD_MS=150",
		"PURE_HANG_MS=" + strconv.Itoa(int(hang.Milliseconds())),
	})
	select {
	case <-procs[0].loop:
	case <-time.After(30 * time.Second):
		t.Fatalf("histogram never completed its first round; node 0 stdout:\n%s", procs[0].stdout())
	}
	start := time.Now()
	if err := procs[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	wantRound := fmt.Sprintf("ROUND 0 EXACT sum=%#x",
		histChecksum(shmemapp.HistReference(shmemHistCfg(1, 2048), 3, 1)))
	for _, i := range []int{0, 2} {
		code := waitCode(t, procs[i], hang+10*time.Second)
		if code != 3 {
			t.Fatalf("node %d: exit code %d, want 3 (node-dead); stdout:\n%s", i, code, procs[i].stdout())
		}
		out := procs[i].stdout()
		if !strings.Contains(out, "NODEDEAD dead=[1]") {
			t.Fatalf("node %d: no NODEDEAD report naming node 1; stdout:\n%s", i, out)
		}
		// The surviving partial totals must carry a checksum proof: round 0
		// verified bit-exact against the independently recomputed reference
		// before the kill landed.
		if !strings.Contains(out, wantRound) {
			t.Fatalf("node %d: no pre-death round proof %q; stdout:\n%s", i, wantRound, out)
		}
	}
	if e := time.Since(start); e >= hang {
		t.Fatalf("survivors took %v to report the death, not inside HangTimeout %v", e, hang)
	}
	if code := waitCode(t, procs[1], time.Second); code != -1 {
		t.Fatalf("killed node reported exit code %d, want -1 (signal)", code)
	}
}

// TestChaosLiveShmemLossy resets the connection at 15%% of first
// transmissions on every link of a two-process histogram; redial and replay
// must recover every remote AtomicAdd and every round must verify bit-exact.
func TestChaosLiveShmemLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and redials real sockets")
	}
	const rounds, items = 3, 1024
	procs := launchWorld(t, 2, []string{
		"PURE_WORKLOAD=shmem-hist",
		"PURE_HIST_ROUNDS=" + strconv.Itoa(rounds),
		"PURE_HIST_ITEMS=" + strconv.Itoa(items),
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
	wantLast := fmt.Sprintf("ROUND %d EXACT sum=%#x", rounds-1,
		histChecksum(shmemapp.HistReference(shmemHistCfg(rounds, items), 2, rounds)))
	if !strings.Contains(out, wantLast) {
		t.Fatalf("node 0 never printed the final verified round %q; stdout:\n%s", wantLast, out)
	}
	checkRecovered(t, procs)
}
