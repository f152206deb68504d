package main

import (
	"fmt"
	"runtime"
)

const (
	minTimedReps   = 3  // never fewer, whatever the time budget
	maxTimedReps   = 60 // a much faster program still ends
	setupOnlyReps  = 30 // extra launches that only set up, for setup_s
	layerBaseReps  = 5  // untraced repetitions the layer pass compares with
	checkScale     = 1.0 / 50
	setupOnlyScale = 0
)

// runResult is one workload's outcome in one mode (timed or layer pass).
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Reps      int                `json:"reps"`
	Samples   map[string]int     `json:"samples_per_rep,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// repeat runs w.rep n times (n < 0: until the budget is used, within
// [minTimedReps, maxTimedReps]), collecting garbage between repetitions.
func repeat(w workload, o obsOpts, n int, budgetNs int64) ([]*repResult, error) {
	var reps []*repResult
	deadline := now() + budgetNs
	for i := 0; ; i++ {
		if n >= 0 && i >= n {
			break
		}
		if n < 0 && i >= minTimedReps {
			last := int64(reps[i-1].wallS * 1e9)
			if i >= maxTimedReps || now()+last > deadline {
				break
			}
		}
		runtime.GC()
		r, err := w.rep(o)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// pick maps repetitions through f and returns their 10 %-trimmed mean.
// Across launches the noise on this box is bimodal — each pure.Run lands
// the two ranks on the two vCPUs one way or the other, and a collective's
// leader is faster on one of them — so a median over repetitions jumps
// between the modes as their share crosses one half, where a mean moves
// with the share; trimming a tenth on each side still drops the odd
// repetition the host disturbed.
func pick(reps []*repResult, f func(*repResult) float64) float64 {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = f(r)
	}
	return trimmedMean(vals, 0.10)
}

// timedRun produces the end-to-end metrics of workload i: one untimed
// warm-up repetition (the first in-process repetition of every app is
// several times slower than the rest), then fixed-size timed repetitions
// with nothing observed until the time budget is used.  Within a
// repetition every value is a median or percentile over its operations;
// across repetitions it is the trimmed mean of those (see pick).
func timedRun(i int, seed uint64, seconds float64, scale float64) (*runResult, error) {
	spec := workloads[i]
	w, err := spec.new(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing: %w", spec.name, err)
	}
	start := now()
	if _, err := repeat(w, obsOpts{}, 1, 0); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", spec.name, err)
	}
	budget := int64(seconds*1e9) - (now() - start)
	reps, err := repeat(w, obsOpts{}, -1, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}

	// Set-up is a sub-millisecond quantity, so it is sampled more often
	// than the timed repetitions alone would: extra launches of the
	// zero-size variant of the workload, which only set up.
	ws, err := spec.new(seed, setupOnlyScale)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing set-up-only variant: %w", spec.name, err)
	}
	setups, err := repeat(ws, obsOpts{}, setupOnlyReps, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up-only: %w", spec.name, err)
	}

	res := &runResult{Workload: spec.name, Seed: seed, Reps: len(reps), Metrics: map[string]float64{}}
	for _, r := range reps {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	res.Samples = map[string]int{"op_ns": len(reps[0].opLat)}
	res.Metrics["setup_s"] = pick(append(setups, reps...), func(r *repResult) float64 { return r.setupS })
	res.Metrics["op_ns_p50"] = pick(reps, opP50)
	res.Metrics["op_ns_p90"] = pick(reps, func(r *repResult) float64 { return percentile(r.opLat, 90) })
	res.Metrics["throughput_per_s"] = pick(reps, func(r *repResult) float64 { return r.rate })
	return res, nil
}
