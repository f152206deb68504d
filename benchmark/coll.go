package main

import (
	"encoding/binary"
	"math/rand/v2"

	"repro/pure"
)

// collSizes is the size table row of coll-intra (calls per repetition).
type collSizes struct {
	barrier, allreduce8, allreduce64K int
}

// collWorkload is coll-intra: Barrier, 8 B Allreduce (SPTD) and 64 KiB
// Allreduce (partitioned reducer) on one node, every call timed on rank 0
// and every result checked against its closed form.
type collWorkload struct {
	sz      collSizes
	base    [nRanks][]int64 // each rank's seeded 64 KiB contribution
	baseSum []int64
}

func newColl(sz collSizes, seed uint64) *collWorkload {
	w := &collWorkload{sz: sz, baseSum: make([]int64, largeBytes/8)}
	rng := rand.New(rand.NewPCG(seed, 0x636f6c6c))
	for r := range w.base {
		w.base[r] = make([]int64, largeBytes/8)
		for j := range w.base[r] {
			w.base[r][j] = int64(rng.Uint32())
			w.baseSum[j] += w.base[r][j]
		}
	}
	return w
}

// collBufs is one rank's Allreduce inputs and outputs.
type collBufs struct{ in8, out8, in64K, out64K []byte }

type collTimes struct {
	barrier, allreduce8, allreduce64K []int64
}

func (w *collWorkload) rep(o obsOpts) (*repResult, error) {
	h, root, run := repSpans(o)
	// Harness buffers are allocated before the launch so set-up times the
	// runtime, not the benchmark's own page faults.
	stamps := make([]int64, max(w.sz.barrier, w.sz.allreduce8, w.sz.allreduce64K)+1)
	var bufs [nRanks]collBufs
	for rank := range bufs {
		bufs[rank] = collBufs{make([]byte, 8), make([]byte, 8), make([]byte, largeBytes), make([]byte, largeBytes)}
		pure.PutInt64s(bufs[rank].in64K, w.base[rank])
	}
	var tm collTimes
	g := newRegion()
	reports, err := launch(oneNode, o, func(cfg pure.Config) (pure.Report, error) {
		return pure.RunWithReport(cfg, func(r *pure.Rank) { w.rank(r, o, run, g, &tm, stamps, bufs[r.ID()]) })
	})
	h.end(run)
	if err != nil {
		return nil, err
	}
	res := g.result(int64(w.sz.barrier+w.sz.allreduce8+w.sz.allreduce64K), reports)
	res.opLat = tm.allreduce8
	res.rate = ratio(1e9, percentile(tm.barrier, 50))
	res.named["barrier_ns_p50"] = percentile(tm.barrier, 50)
	res.named["allreduce_8B_ns_p50"] = percentile(tm.allreduce8, 50)
	res.named["allreduce_8B_ns_p99"] = percentile(tm.allreduce8, 99)
	res.named["allreduce_64KiB_ns_p50"] = percentile(tm.allreduce64K, 50)
	h.end(root)
	return res, nil
}

func (w *collWorkload) rank(r *pure.Rank, o obsOpts, parent int32, g *region, tm *collTimes, stamps []int64, b collBufs) {
	ln := o.spans.lane(1+r.ID(), o.rep)
	me := r.ID()
	c := r.World()

	s := ln.begin("setup", parent)
	g.start(me, c.Barrier)
	ln.end(s)

	s = ln.begin("phase:barrier", parent)
	if me == 0 {
		stamps[0] = now()
	}
	for i := 0; i < w.sz.barrier; i++ {
		c.Barrier()
		if me == 0 {
			stamps[i+1] = now()
		}
	}
	if me == 0 {
		tm.barrier = sortedLatencies(stamps[:w.sz.barrier+1])
	}
	ln.end(s)

	s = ln.begin("phase:allreduce_8B", parent)
	failed := allreduceLoop(c, me, b.in8, b.out8, nil, w.sz.allreduce8, stamps)
	if me == 0 {
		tm.allreduce8 = sortedLatencies(stamps[:w.sz.allreduce8+1])
	}
	ln.end(s)

	s = ln.begin("phase:allreduce_64KiB", parent)
	failed += allreduceLoop(c, me, b.in64K, b.out64K, w.baseSum, w.sz.allreduce64K, stamps)
	if me == 0 {
		tm.allreduce64K = sortedLatencies(stamps[:w.sz.allreduce64K+1])
	}
	ln.end(s)

	g.failed.Add(failed)
	g.finish(me, c.Barrier)
}

// allreduceLoop runs n checked int64-sum Allreduce calls of len(in) bytes.
// Slot 0 of every rank's input is rewritten per call (see allreduceWant);
// the other slots keep the caller's base values, whose sum is baseSum.
// Every rank checks every result; rank 0 stamps each completion.
func allreduceLoop(c *pure.Comm, me int, in, out []byte, baseSum []int64, n int, stamps []int64) (failed int64) {
	if me == 0 {
		stamps[0] = now()
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(in, uint64(i*(me+1)))
		c.Allreduce(in, out, pure.Sum, pure.Int64)
		failed += checkReduction(out, int64(i), baseSum, i == n-1)
		if me == 0 {
			stamps[i+1] = now()
		}
	}
	return failed
}
