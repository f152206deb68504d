package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload and metric, both files' values, the
// delta and the bound from BENCHMARK.json, and returns an error when an
// end-to-end metric of B is worse than A's by more than its bound, when
// allocs_per_op grew by more than allocsBound, or when a workload or metric
// is missing on one side.  Two runs of the same code compared this way are
// the repeatability check; a parent and a change, the regression check.
func compareFiles(pathA, pathB string, w io.Writer) error {
	man, err := readManifest()
	if err != nil {
		return err
	}
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	var problems int
	problem := func(format string, args ...any) {
		problems++
		fmt.Fprintf(w, "FAIL  "+format+"\n", args...)
	}

	byName := func(rf *resultFile) map[string]workloadResult {
		m := map[string]workloadResult{}
		for _, wr := range rf.Workloads {
			m[wr.Name] = wr
		}
		return m
	}
	wa, wb := byName(a), byName(b)
	for _, mw := range man.Workloads {
		ra, okA := wa[mw.Name]
		rb, okB := wb[mw.Name]
		if !okA || !okB {
			problem("workload %s: present in A=%v B=%v", mw.Name, okA, okB)
			continue
		}
		fmt.Fprintf(w, "\n== %s\n%-44s %16s %16s %9s %8s\n", mw.Name, "metric", "A", "B", "delta", "bound")
		for _, d := range man.EndToEnd {
			va, okA := ra.EndToEnd.Metrics[d.Name]
			vb, okB := rb.EndToEnd.Metrics[d.Name]
			if !okA || !okB {
				problem("%s %s: present in A=%v B=%v", mw.Name, d.Name, okA, okB)
				continue
			}
			worse := worsening(va, vb, d.Better)
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				problems++
			}
			fmt.Fprintf(w, "%-44s %16.6g %16.6g %+8.1f%% %7.0f%%%s\n", d.Name, va, vb, 100*delta(va, vb), 100*d.Bound, verdict)
		}
		for _, d := range man.PerLayer {
			va, okA := ra.PerLayer.Metrics[d.Name]
			vb, okB := rb.PerLayer.Metrics[d.Name]
			if !okA || !okB {
				problem("%s %s: present in A=%v B=%v", mw.Name, d.Name, okA, okB)
				continue
			}
			if va == 0 && vb == 0 {
				continue // bypassed layer
			}
			verdict, bound := "", "-"
			if d.Name == "allocs_per_op" {
				bound = fmt.Sprintf("+%.2f", allocsBound)
				if vb-va > allocsBound {
					verdict = "  REGRESSION"
					problems++
				}
			}
			fmt.Fprintf(w, "%-44s %16.6g %16.6g %+8.1f%% %8s%s\n", d.Name, va, vb, 100*delta(va, vb), bound, verdict)
		}
		if f := ra.EndToEnd.Failed + ra.PerLayer.Failed + rb.EndToEnd.Failed + rb.PerLayer.Failed; f != 0 {
			problem("%s: %d operations failed verification", mw.Name, f)
		}
	}
	if problems != 0 {
		return fmt.Errorf("%d problems (regressions beyond their bound, or names missing on one side)", problems)
	}
	fmt.Fprintln(w, "\nOK: every end-to-end metric of B is within its bound of A")
	return nil
}

// delta is B's change relative to A.
func delta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// worsening is how much worse B is than A, as a share of A (negative when
// B is better).
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return -delta(a, b)
	}
	return delta(a, b)
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, wr := range rf.Workloads {
		if wr.EndToEnd == nil || wr.PerLayer == nil {
			return nil, fmt.Errorf("%s: workload %s lacks a pass", path, wr.Name)
		}
	}
	return &rf, nil
}
