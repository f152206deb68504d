package bench

import (
	"fmt"
	"time"

	shmemapp "repro/internal/apps/shmem"
	"repro/internal/topology"
	"repro/pure"
)

// ShmemPGAS is the PGAS-layer experiment: the remote-atomic histogram and
// the mailbox-frontier BFS on co-resident ranks and across two in-process
// nodes' links, plus the raw mailbox round trip.  Every data row is exactness-
// gated — a lost remote atomic or a reordered mailbox message flips the
// exact column, so the throughput numbers are only reported for verified
// runs.
func ShmemPGAS(quick bool) Table {
	reps := 5
	histItems := 4096
	bfsVerts := 4096
	mboxIters := 20000
	if quick {
		reps = 3
		histItems = 1024
		bfsVerts = 1024
		mboxIters = 3000
	}
	tb := Table{
		ID:      "shmem",
		Title:   "PGAS layer: remote-atomic histogram, mailbox BFS, mailbox round trip",
		Columns: []string{"workload", "placement", "per-op", "ops/s", "exact"},
		Notes: []string{
			"histogram: per remote AtomicAdd into strided bins, round-verified vs the serial oracle",
			"bfs: per vertex settled; frontier exchange over actor mailboxes with marker termination",
			"mailbox: one 8-byte message each way between two owner rings",
			"cross-node rows ride the link layer between two in-process nodes; medians of repeated runs",
		},
	}

	crossCfg := func() pure.Config {
		return pure.Config{
			NRanks:       2,
			Spec:         topology.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
			RanksPerNode: 1,
		}
	}

	exactCell := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "NO"
	}
	row := func(workload, placement string, perOp int64, exact bool) {
		tb.Rows = append(tb.Rows, []string{
			workload, placement, ns(perOp),
			fmt.Sprintf("%.3g", 1e9/float64(perOp)), exactCell(exact),
		})
	}

	for _, placement := range []string{"same-node", "cross-node"} {
		cfg := func() pure.Config { return pure.Config{NRanks: 4} }
		items := histItems
		if placement == "cross-node" {
			cfg = crossCfg
			items = histItems / 8
		}
		hcfg := shmemapp.HistConfig{Bins: 256, Items: items, Rounds: 2, Seed: 3}
		exact := true
		var updates int64
		perOp := medianOf(reps, func() int64 {
			res, elapsed := runShmemHist(cfg(), hcfg)
			exact = exact && res.Exact
			updates = res.Updates
			return elapsed.Nanoseconds() / max64(updates, 1)
		})
		row("histogram", placement, perOp, exact)
	}

	{
		bcfg := shmemapp.BFSConfig{Vertices: bfsVerts, Degree: 3, Seed: 5}
		exact := true
		perOp := medianOf(reps, func() int64 {
			res, elapsed := runShmemBFS(pure.Config{NRanks: 4}, bcfg)
			exact = exact && res.Exact
			return elapsed.Nanoseconds() / max64(res.Reached, 1)
		})
		row("bfs", "same-node", perOp, exact)
	}

	for _, placement := range []string{"same-node", "cross-node"} {
		cfg := pure.Config{NRanks: 2}
		iters := mboxIters
		if placement == "cross-node" {
			cfg = crossCfg()
			iters = mboxIters / 20
		}
		exact := true
		perOp := medianOf(reps, func() int64 {
			ok, elapsed := runShmemMailboxPingPong(cfg, iters)
			exact = exact && ok
			return elapsed.Nanoseconds() / int64(iters)
		})
		row("mailbox-rt", placement, perOp, exact)
	}
	return tb
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runShmemHist executes one verified histogram run and returns rank 0's
// result plus the wall time.
func runShmemHist(cfg pure.Config, hcfg shmemapp.HistConfig) (shmemapp.HistResult, time.Duration) {
	var res shmemapp.HistResult
	start := time.Now()
	err := pure.Run(cfg, func(r *pure.Rank) {
		got, herr := shmemapp.RunHistogram(r, hcfg)
		if herr != nil {
			r.Abort(herr)
			return
		}
		if r.ID() == 0 {
			res = got
		}
	})
	if err != nil {
		panic(err)
	}
	return res, time.Since(start)
}

// runShmemBFS executes one verified traversal and returns rank 0's result
// plus the wall time.
func runShmemBFS(cfg pure.Config, bcfg shmemapp.BFSConfig) (shmemapp.BFSResult, time.Duration) {
	var res shmemapp.BFSResult
	start := time.Now()
	err := pure.Run(cfg, func(r *pure.Rank) {
		got, berr := shmemapp.RunBFS(r, bcfg)
		if berr != nil {
			r.Abort(berr)
			return
		}
		if r.ID() == 0 {
			res = got
		}
	})
	if err != nil {
		panic(err)
	}
	return res, time.Since(start)
}

// runShmemMailboxPingPong bounces a stamped message between two mailboxes
// iters times and reports payload integrity plus elapsed time.
func runShmemMailboxPingPong(cfg pure.Config, iters int) (bool, time.Duration) {
	ok := true
	var elapsed time.Duration
	err := pure.Run(cfg, func(r *pure.Rank) {
		c := r.World()
		s := c.ShmemCreate(4096, 0)
		mb0 := s.NewMailbox(0, 8, 8)
		mb1 := s.NewMailbox(1, 8, 8)
		msg := make([]byte, 8)
		if c.Rank() == 0 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				msg[0] = byte(i)
				mb1.Send(msg)
				mb0.Recv(msg)
				if msg[0] != byte(i)+1 {
					ok = false
				}
			}
			elapsed = time.Since(start)
		} else {
			for i := 0; i < iters; i++ {
				mb1.Recv(msg)
				msg[0]++
				mb0.Send(msg)
			}
		}
		s.Barrier()
		s.FreeHeap()
	})
	if err != nil {
		panic(err)
	}
	return ok, elapsed
}
