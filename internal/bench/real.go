package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/desmodels"
	"repro/internal/topology"
	"repro/mpibase"
	"repro/pure"
)

// runPurePlacedPair simulates the two-rank ping-pong with ranks placed at a
// chosen distance: 1 = same socket/different cores (shared L3), 2 =
// different sockets (cross NUMA).
func runPurePlacedPair(kind int, prog func(desmodels.VCtx)) (int64, error) {
	spec := topology.CoriSpec(1)
	var seats []topology.HWThread
	switch kind {
	case 1:
		seats = []topology.HWThread{{Node: 0, Socket: 0, Core: 0, Thread: 0}, {Node: 0, Socket: 0, Core: 5, Thread: 0}}
	default:
		seats = []topology.HWThread{{Node: 0, Socket: 0, Core: 0, Thread: 0}, {Node: 0, Socket: 1, Core: 0, Thread: 0}}
	}
	place, err := topology.NewPlacement(spec, 2, 0, topology.Custom, seats)
	if err != nil {
		return 0, err
	}
	return desmodels.RunPurePlaced(place, costs, desmodels.PureOpts{}, prog)
}

// ---- Real-runtime microbenchmarks (measured on this host) ----

// medianOf runs f reps times and returns the median result, the paper's
// reporting convention ("taking the median result across 10 runs").
func medianOf(reps int, f func() int64) int64 {
	vals := make([]int64, reps)
	for i := range vals {
		runtime.GC() // keep collector pauses out of the timed region
		vals[i] = f()
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return vals[len(vals)/2]
}

// RealHostPingPong measures the actual Pure and mpibase runtimes' two-rank
// round-trip time on this machine for a range of payloads.  The paper's
// placement axis cannot be reproduced here (no thread pinning across
// sockets on this host); the measurement validates the *protocol* gap the
// DES placement curves are calibrated against.
func RealHostPingPong(quick bool) Table {
	sizes := []int{8, 64, 1 << 10, 8 << 10, 64 << 10, 1 << 20}
	iters := 2000
	reps := 9
	if quick {
		sizes = []int{8, 1 << 10, 64 << 10}
		iters = 300
		reps = 5
	}
	tb := Table{
		ID:      "fig6real",
		Title:   "Real-runtime intra-node ping-pong on this host (validates Fig. 6's protocol gap)",
		Columns: []string{"payload", "mpibase-rt", "pure-rt", "speedup"},
		Notes: []string{
			"medians of repeated runs; the paper's protocol gap needs a core per spinning rank — with fewer cores than ranks both runtimes yield to the Go scheduler and the gap narrows; the DES placement curves show the full gap",
		},
	}
	for _, sz := range sizes {
		it := iters
		if sz >= 64<<10 {
			it = iters / 10
		}
		mpiNs := medianOf(reps, func() int64 { return realMPIPingPong(sz, it) })
		pureNs := medianOf(reps, func() int64 { return realPurePingPong(sz, it) })
		tb.Rows = append(tb.Rows, []string{
			bytesLabel(sz), ns(mpiNs), ns(pureNs), fmt.Sprintf("%.2fx", float64(mpiNs)/float64(pureNs)),
		})
	}
	return tb
}

// realPurePingPong returns the mean round-trip ns over iters exchanges.
func realPurePingPong(size, iters int) int64 {
	var elapsed time.Duration
	err := pure.Run(pure.Config{NRanks: 2}, func(r *pure.Rank) {
		c := r.World()
		buf := make([]byte, size)
		c.Barrier()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if r.ID() == 0 {
				c.Send(buf, 1, 0)
				c.Recv(buf, 1, 1)
			} else {
				c.Recv(buf, 0, 0)
				c.Send(buf, 0, 1)
			}
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

// realMPIPingPong is the mpibase counterpart.
func realMPIPingPong(size, iters int) int64 {
	var elapsed time.Duration
	err := mpibase.Run(mpibase.Config{NRanks: 2}, func(p *mpibase.Proc) {
		c := p.World()
		buf := make([]byte, size)
		c.Barrier()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if p.ID() == 0 {
				c.Send(buf, 1, 0)
				c.Recv(buf, 1, 1)
			} else {
				c.Recv(buf, 0, 0)
				c.Send(buf, 0, 1)
			}
		}
		if p.ID() == 0 {
			elapsed = time.Since(start)
		}
	})
	if err != nil {
		panic(err)
	}
	return elapsed.Nanoseconds() / int64(iters)
}

// RealHostBarrier measures real-runtime barriers at small rank counts
// (Fig. 7b's single-node leg on this host).
func RealHostBarrier(quick bool) Table {
	scales := []int{2, 4, 8, 16}
	iters := 500
	if quick {
		scales = []int{2, 8}
		iters = 100
	}
	tb := Table{
		ID:      "fig7breal",
		Title:   "Real-runtime barrier on this host",
		Columns: []string{"ranks", "mpibase-rt", "pure-rt", "speedup"},
	}
	for _, n := range scales {
		m := medianOf(5, func() int64 {
			var mpiD time.Duration
			if err := mpibase.Run(mpibase.Config{NRanks: n}, func(p *mpibase.Proc) {
				c := p.World()
				c.Barrier()
				start := time.Now()
				for i := 0; i < iters; i++ {
					c.Barrier()
				}
				if p.ID() == 0 {
					mpiD = time.Since(start)
				}
			}); err != nil {
				panic(err)
			}
			return mpiD.Nanoseconds() / int64(iters)
		})
		p := medianOf(5, func() int64 {
			var pureD time.Duration
			if err := pure.Run(pure.Config{NRanks: n}, func(r *pure.Rank) {
				c := r.World()
				c.Barrier()
				start := time.Now()
				for i := 0; i < iters; i++ {
					c.Barrier()
				}
				if r.ID() == 0 {
					pureD = time.Since(start)
				}
			}); err != nil {
				panic(err)
			}
			return pureD.Nanoseconds() / int64(iters)
		})
		tb.Rows = append(tb.Rows, []string{fmt.Sprint(n), ns(m), ns(p), fmt.Sprintf("%.2fx", float64(m)/float64(p))})
	}
	return tb
}

// AppCThreshold reproduces Appendix C: the buffered (PBQ) vs rendezvous
// protocol crossover, measured on the real Pure runtime by sweeping the
// SmallMsgMax threshold against payload sizes around it.
func AppCThreshold(quick bool) Table {
	payloads := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	iters := 2000
	reps := 9
	if quick {
		payloads = []int{4 << 10, 16 << 10}
		iters = 300
		reps = 5
	}
	tb := Table{
		ID:      "appC",
		Title:   "Buffered (PBQ) vs rendezvous per payload (Appendix C threshold study)",
		Columns: []string{"payload", "buffered-rt", "rendezvous-rt", "faster"},
		Notes: []string{
			"buffered: threshold above payload (eager path); rendezvous: threshold below payload",
		},
	}
	for _, sz := range payloads {
		it := iters
		if sz >= 32<<10 {
			it = iters / 4
		}
		buffered := medianOf(reps, func() int64 { return realPureThresholdPingPong(sz, sz*2, it) })
		rendezvous := medianOf(reps, func() int64 { return realPureThresholdPingPong(sz, sz/2, it) })
		faster := "buffered"
		if rendezvous < buffered {
			faster = "rendezvous"
		}
		tb.Rows = append(tb.Rows, []string{bytesLabel(sz), ns(buffered), ns(rendezvous), faster})
	}
	return tb
}

func realPureThresholdPingPong(size, threshold, iters int) int64 {
	var elapsed time.Duration
	err := pure.Run(pure.Config{NRanks: 2, SmallMsgMax: threshold}, func(r *pure.Rank) {
		c := r.World()
		buf := make([]byte, size)
		c.Barrier()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if r.ID() == 0 {
				c.Send(buf, 1, 0)
				c.Recv(buf, 1, 1)
			} else {
				c.Recv(buf, 0, 0)
				c.Send(buf, 0, 1)
			}
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

// AblationPBQSlots measures PBQ depth sensitivity on the real runtime
// (paper: "not a material performance driver").
func AblationPBQSlots(quick bool) Table {
	slots := []int{2, 4, 16, 64, 256}
	iters := 2000
	if quick {
		slots = []int{2, 16, 64}
		iters = 300
	}
	tb := Table{
		ID:      "ablation-pbq",
		Title:   "PBQ slot-count ablation (paper: slot count not a material driver)",
		Columns: []string{"slots", "pingpong-rt"},
	}
	for _, s := range slots {
		rt := medianOf(5, func() int64 {
			var elapsed time.Duration
			err := pure.Run(pure.Config{NRanks: 2, PBQSlots: s}, func(r *pure.Rank) {
				c := r.World()
				buf := make([]byte, 64)
				c.Barrier()
				start := time.Now()
				for i := 0; i < iters; i++ {
					if r.ID() == 0 {
						c.Send(buf, 1, 0)
						c.Recv(buf, 1, 1)
					} else {
						c.Recv(buf, 0, 0)
						c.Send(buf, 0, 1)
					}
				}
				if r.ID() == 0 {
					elapsed = time.Since(start)
				}
			})
			if err != nil {
				panic(err)
			}
			return elapsed.Nanoseconds() / int64(iters)
		})
		tb.Rows = append(tb.Rows, []string{fmt.Sprint(s), ns(rt)})
	}
	return tb
}

// experiments is the registry, in paper order: each experiment's id (the
// ID of the Table it returns) and its runner.
var experiments = []struct {
	id  string
	run func(quick bool) Table
}{
	{"fig1", Fig1Timeline},
	{"sec2", Sec2Stencil},
	{"fig4", Fig4DT},
	{"fig5a", Fig5aCoMD},
	{"fig5b", Fig5bCoMDImbalanced},
	{"fig5c", Fig5cCoMDDynamic},
	{"fig5d", Fig5dMiniAMR},
	{"fig6", Fig6PingPong},
	{"fig6real", RealHostPingPong},
	{"fig7a", Fig7aAllreduce},
	{"fig7b", Fig7bBarrierNode},
	{"fig7breal", RealHostBarrier},
	{"fig7c", Fig7cBarrierScale},
	{"appA", AppAExtraCollectives},
	{"appC", AppCThreshold},
	{"ablation-pbq", AblationPBQSlots},
	{"rma", RMAHalo},
	{"shmem", ShmemPGAS},
	{"statsd", StatsdPipeline},
}

// All returns every experiment in paper order.
func All(quick bool) []Table {
	tables := make([]Table, len(experiments))
	for i, e := range experiments {
		tables[i] = e.run(quick)
	}
	return tables
}

// ByID returns the experiment runner for an id, or nil.
func ByID(id string) func(bool) Table {
	for _, e := range experiments {
		if e.id == id {
			return e.run
		}
	}
	return nil
}
