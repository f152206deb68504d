// Command benchmark is the repository's benchmark: seven workloads on the
// real runtime, every output verified, end-to-end metrics from untraced
// timed repetitions and per-layer metrics from a separate layer pass.  See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName  = flag.String("workload", "", "run this workload only and end with the driver's one-line JSON result (default: run all, write the result file)")
		seed          = flag.Uint64("seed", 1, "seed of every generated input")
		seconds       = flag.Float64("seconds", 10, "time budget of one workload's warm-up and timed repetitions")
		trace         = flag.Int("trace", 0, "with -workload: 0 = timed repetitions and end-to-end metrics, 1 = layer pass and per-layer metrics")
		check         = flag.Bool("check", false, "run every workload at 1/50 size, both passes, verification on")
		compare       = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		printManifest = flag.Bool("print-manifest", false, "print BENCHMARK.json as the metric and workload tables define it")
		out           = flag.String("out", "", "directory for the result file and span dumps (default: benchmark/out)")
	)
	flag.Parse()

	switch {
	case *printManifest:
		b, err := json.MarshalIndent(manifestFromTables(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("usage: -compare A.json B.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	if *out == "" {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		*out = filepath.Join(root, "benchmark", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	scale := 1.0
	if *check {
		scale = checkScale
	}

	if *workloadName != "" {
		i, err := findWorkload(*workloadName)
		if err != nil {
			return err
		}
		return runOne(i, *seed, *seconds, *trace != 0, scale, *out)
	}
	return runAll(*seed, *seconds, scale, *out)
}

// repoRoot finds the checkout root — the directory holding BENCHMARK.json —
// from the working directory (the root itself under benchmark/run.sh, this
// directory under `go run .`).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("%s not found in . or ..: run from the repository root or from benchmark/", manifestName)
}

// driverLine is the one JSON object the driver reads off the last line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in one mode under the driver's contract: every
// metric printed by name with its unit, then the one-line JSON result.
func runOne(i int, seed uint64, seconds float64, layerPass bool, scale float64, out string) error {
	var res *runResult
	defs := endToEnd
	if layerPass {
		defs = perLayer
		r, spans, err := layerRun(i, seed, scale)
		if err != nil {
			return err
		}
		if err := spans.writeChromeTrace(filepath.Join(out, "spans-"+workloads[i].name+".json")); err != nil {
			return err
		}
		res = r
	} else {
		r, err := timedRun(i, seed, seconds, scale)
		if err != nil {
			return err
		}
		res = r
	}
	printMetrics(res, defs)
	line := driverLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]driverValue{},
	}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printMetrics prints one workload's metrics by name with their units.
func printMetrics(res *runResult, defs []metricDef) {
	fmt.Printf("# %s seed=%d reps=%d attempted=%d failed=%d\n", res.Workload, res.Seed, res.Reps, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("%-16s %-42s %16.6g %s\n", res.Workload, d.Name, res.Metrics[d.Name], d.Unit)
	}
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Schema  int      `json:"schema"`
	Seed    uint64   `json:"seed"`
	Scale   float64  `json:"scale"`
	Host    hostInfo `json:"host"`
	Harness struct {
		Ranks      int     `json:"ranks"`
		RunSeconds float64 `json:"run_seconds"`
		TimerNs    float64 `json:"timer_ns"`
		Note       string  `json:"note"`
	} `json:"harness"`
	Workloads []workloadResult `json:"workloads"`
	// Moves names, per per-layer metric, the end-to-end metric and
	// workload it should move.
	Moves map[string]string `json:"moves"`
}

type workloadResult struct {
	Name     string     `json:"name"`
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// runAll is the one command: every workload, both passes, every output
// verified, every metric printed, result file and span dumps written.
func runAll(seed uint64, seconds, scale float64, out string) error {
	rf := resultFile{Schema: 1, Seed: seed, Scale: scale, Host: host(), Moves: map[string]string{}}
	rf.Harness.Ranks = nRanks
	rf.Harness.RunSeconds = seconds
	rf.Harness.TimerNs = timerCost()
	rf.Harness.Note = "per-operation timing reads the clock once per operation; xnode-tcp is loopback, not a real link; the 4-rank and 2x2 rungs oversubscribe 2 cores and are informational"
	for _, d := range perLayer {
		rf.Moves[d.Name] = d.Moves
	}
	var failed int64
	for i, spec := range workloads {
		e2e, err := timedRun(i, seed, seconds, scale)
		if err != nil {
			return err
		}
		printMetrics(e2e, endToEnd)
		layers, spans, err := layerRun(i, seed, scale)
		if err != nil {
			return err
		}
		printMetrics(layers, perLayer)
		if err := spans.writeChromeTrace(filepath.Join(out, "spans-"+spec.name+".json")); err != nil {
			return err
		}
		rf.Workloads = append(rf.Workloads, workloadResult{Name: spec.name, EndToEnd: e2e, PerLayer: layers})
		failed += e2e.Failed + layers.Failed
	}
	path := filepath.Join(out, fmt.Sprintf("result-seed%d.json", seed))
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s and %d span dumps in %s\n", path, len(workloads), out)
	if failed != 0 {
		return fmt.Errorf("%d operations failed verification", failed)
	}
	return nil
}
