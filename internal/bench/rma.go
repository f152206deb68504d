package bench

import (
	"fmt"
	"time"

	"repro/internal/topology"
	"repro/pure"
)

// RMAHalo compares the two ways to run a bidirectional halo exchange on the
// real runtime: paired Isend/Irecv messages versus one-sided Put + Notify
// into the peer's window.  Intra-node the Put path is a single direct copy
// into the target's exposed memory plus an atomic flag update — no channel
// slot, no matching, no request objects — which is exactly the shared-memory
// advantage the paper argues one-sided operations expose.  The cross-node
// rows ride the same in-process link for both variants.
func RMAHalo(quick bool) Table {
	sizes := []int{64, 1 << 10, 8 << 10, 64 << 10}
	iters := 2000
	reps := 9
	if quick {
		sizes = []int{64, 8 << 10}
		iters = 300
		reps = 5
	}
	tb := Table{
		ID:      "rma",
		Title:   "Halo exchange: two-sided Isend/Irecv vs one-sided Put+Notify",
		Columns: []string{"placement", "payload", "isend/irecv-rt", "put+notify-rt", "speedup"},
		Notes: []string{
			"per-iteration wall time for a 2-rank bidirectional edge exchange, medians of repeated runs",
			"intra-node Put is one direct copy into the peer's window; cross-node both variants ride the link layer between two in-process nodes",
		},
	}
	for _, placement := range []string{"same-node", "cross-node"} {
		for _, sz := range sizes {
			it := iters
			if sz >= 64<<10 {
				it = iters / 10
			}
			cfg := func() pure.Config {
				if placement == "same-node" {
					return pure.Config{NRanks: 2}
				}
				return pure.Config{
					NRanks:       2,
					Spec:         topology.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
					RanksPerNode: 1,
				}
			}
			msgNs := medianOf(reps, func() int64 { return realMsgHalo(cfg(), sz, it) })
			rmaNs := medianOf(reps, func() int64 { return realRMAHalo(cfg(), sz, it) })
			tb.Rows = append(tb.Rows, []string{
				placement, bytesLabel(sz), ns(msgNs), ns(rmaNs),
				fmt.Sprintf("%.2fx", float64(msgNs)/float64(rmaNs)),
			})
		}
	}
	return tb
}

// realMsgHalo times the two-sided exchange: both ranks Isend their edge and
// Irecv the peer's every iteration.
func realMsgHalo(cfg pure.Config, size, iters int) int64 {
	var elapsed time.Duration
	err := pure.Run(cfg, func(r *pure.Rank) {
		c := r.World()
		send := make([]byte, size)
		recv := make([]byte, size)
		peer := 1 - r.ID()
		c.Barrier()
		start := time.Now()
		for i := 0; i < iters; i++ {
			rq := c.Irecv(recv, peer, 0)
			sq := c.Isend(send, peer, 0)
			c.Waitall(rq, sq)
		}
		if r.ID() == 0 {
			elapsed = time.Since(start)
		}
	})
	if err != nil {
		panic(err)
	}
	return elapsed.Nanoseconds() / int64(iters)
}

// realRMAHalo times the one-sided exchange: both ranks Put their edge into
// the peer's window and flag it, then wait for the peer's flag (slot 0) and
// ack consumption (slot 1) so the next iteration may overwrite.
func realRMAHalo(cfg pure.Config, size, iters int) int64 {
	var elapsed time.Duration
	err := pure.Run(cfg, func(r *pure.Rank) {
		c := r.World()
		w := c.WinCreate(make([]byte, size))
		edge := make([]byte, size)
		peer := 1 - r.ID()
		c.Barrier()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if i > 0 {
				w.NotifyWait(1, 1) // peer consumed our previous put
			}
			w.Put(edge, peer, 0)
			w.Notify(peer, 0)
			w.NotifyWait(0, 1) // peer's edge has landed in our window
			w.Notify(peer, 1)
		}
		if r.ID() == 0 {
			elapsed = time.Since(start)
		}
		w.Free()
	})
	if err != nil {
		panic(err)
	}
	return elapsed.Nanoseconds() / int64(iters)
}
