package main

import (
	"fmt"
	"math/rand/v2"

	"repro/comm"
	"repro/internal/apps/comd"
	"repro/mpibase"
	"repro/pure"
)

// comdSizes is the size table row of the two CoMD workloads.
type comdSizes struct{ steps int }

func (s comdSizes) scaled(f float64) comdSizes {
	return comdSizes{steps: scaleInt(s.steps, f, printRate)}
}

// printRate is CoMD's energy Allreduce period in steps.
const printRate = 10

// comdWorkload is comd-balanced or comd-steal: internal/apps/comd over
// comm.RunPure on a {2,1,1} rank grid, its Result checked against the
// mpibase run of the same Params made while preparing the workload.
type comdWorkload struct {
	steal  bool
	params comd.Params
	ref    comd.Result
}

func newComd(steal bool, sz comdSizes, seed uint64) (*comdWorkload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x636f6d64))
	p := comd.Params{
		Grid:         [3]int{nRanks, 1, 1},
		CellsPerRank: [3]int{4, 4, 4},
		AtomsPerCell: 4,
		Steps:        sz.steps,
		PrintRate:    printRate,
		// The seed perturbs the timestep by up to 1 %, so every seed is a
		// different trajectory with the same amount of work.
		Dt: 0.001 * (1 + 0.01*rng.Float64()),
	}
	if steal {
		p.CellsPerRank = [3]int{6, 6, 6}
		p.ExtraWork = 8
		p.UseTask = true
		// One void of radius 3 centred in rank 1's box (x in [6,12)) elides
		// about a quarter of all atoms, all of them rank 1's; the seed
		// jitters its centre by up to ±0.1 cell.
		jitter := func() float64 { return 0.2 * (rng.Float64() - 0.5) }
		p.Voids = []comd.Sphere{{
			Center: comd.Vec3{X: 9 + jitter(), Y: 3 + jitter(), Z: 3 + jitter()},
			Radius: 3,
		}}
	}
	w := &comdWorkload{steal: steal, params: p}
	var refErr error
	err := comm.RunMPI(mpibase.Config{NRanks: nRanks}, func(b comm.Backend) {
		res, err := comd.Run(b, p)
		if b.Rank() == 0 {
			w.ref, refErr = res, err
		}
	})
	if err == nil {
		err = refErr
	}
	if err != nil {
		return nil, fmt.Errorf("comd reference run over mpibase: %w", err)
	}
	return w, nil
}

// tickBackend stamps the completion of every Sendrecv on rank 0 and passes
// everything else through.  CoMD makes the same number of Sendrecv calls in
// every halo exchange, so every k-th stamp closes one time step — the
// workloads' primary timed operation — at the cost of one clock reading
// per call (four per ~150 us step).
type tickBackend struct {
	comm.Backend
	stamps []int64
}

func (t *tickBackend) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) int {
	n := t.Backend.Sendrecv(sendBuf, dst, sendTag, recvBuf, src, recvTag)
	t.stamps = append(t.stamps, now())
	return n
}

// stepLatencies picks the stamp that closes each halo exchange — CoMD runs
// one before the first step and one per step — and returns the sorted step
// latencies (the first step, which follows initialisation, is left out).
func (t *tickBackend) stepLatencies(steps int) []int64 {
	if steps < 2 || len(t.stamps) == 0 || len(t.stamps)%(steps+1) != 0 {
		return nil
	}
	k := len(t.stamps) / (steps + 1)
	ends := make([]int64, 0, steps)
	for i := 2*k - 1; i < len(t.stamps); i += k {
		ends = append(ends, t.stamps[i])
	}
	return latencies(ends)
}

func (w *comdWorkload) rep(o obsOpts) (*repResult, error) {
	return w.run(o, w.params)
}

// run is rep for any Params on the workload's rank grid (the layer pass
// also runs an untasked variant).
func (w *comdWorkload) run(o obsOpts, p comd.Params) (*repResult, error) {
	h, root, run := repSpans(o)
	tick := &tickBackend{stamps: make([]int64, 0, 4*(p.Steps+1))}
	var got comd.Result
	var runErr error
	var totals []backendTotals
	if o.spans != nil {
		totals = make([]backendTotals, nRanks)
	}
	g := newRegion()
	reports, err := launch(oneNode, o, func(cfg pure.Config) (pure.Report, error) {
		return comm.RunPureWithReport(cfg, func(b comm.Backend) {
			me := b.Rank()
			ln := o.spans.lane(1+me, o.rep)
			s := ln.begin("setup", run)
			g.start(me, b.Barrier)
			ln.end(s)

			s = ln.begin("comd.Run", run)
			be := b
			var timed *timedBackend
			switch {
			case o.spans != nil:
				timed = newTimedBackend(b, ln, s)
				be = timed
			case me == 0:
				tick.Backend = b
				be = tick
			}
			res, err := comd.Run(be, p)
			ln.end(s)
			g.finish(me, b.Barrier)
			if me == 0 {
				got, runErr = res, err
			}
			if timed != nil {
				totals[me] = *timed.tot
			}
		})
	})
	h.end(run)
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	v := h.begin("verify", root)
	if checkComd(got, w.ref) != 0 {
		g.failed.Add(int64(p.Steps)) // one wrong Result fails every step of the repetition
	}
	h.end(v)
	res := g.result(int64(p.Steps), reports)
	res.backend = totals
	res.opLat = tick.stepLatencies(p.Steps)
	res.rate = ratio(float64(w.ref.Atoms)*1e9, percentile(res.opLat, 50))
	h.end(root)
	return res, nil
}
