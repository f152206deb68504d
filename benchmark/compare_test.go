package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticResult builds a result file with every manifest name present.
func syntheticResult(t *testing.T, dir, name string, edit func(rf *resultFile)) string {
	t.Helper()
	rf := resultFile{Schema: 1}
	for _, w := range workloads {
		e2e := &runResult{Workload: w.name, Attempted: 1, Metrics: map[string]float64{}}
		layers := &runResult{Workload: w.name, Attempted: 1, Metrics: map[string]float64{}}
		for _, d := range endToEnd {
			e2e.Metrics[d.Name] = 100
		}
		for _, d := range perLayer {
			layers.Metrics[d.Name] = 1
		}
		rf.Workloads = append(rf.Workloads, workloadResult{Name: w.name, EndToEnd: e2e, PerLayer: layers})
	}
	if edit != nil {
		edit(&rf)
	}
	b, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := syntheticResult(t, dir, "a.json", nil)
	cases := []struct {
		name    string
		edit    func(rf *resultFile)
		wantErr bool
	}{
		{"identical", nil, false},
		{"within bound", func(rf *resultFile) { rf.Workloads[0].EndToEnd.Metrics["op_ns_p50"] = 105 }, false},
		{"lower-is-better regressed", func(rf *resultFile) { rf.Workloads[0].EndToEnd.Metrics["op_ns_p50"] = 150 }, true},
		{"higher-is-better regressed", func(rf *resultFile) { rf.Workloads[2].EndToEnd.Metrics["throughput_per_s"] = 50 }, true},
		{"higher-is-better improved", func(rf *resultFile) { rf.Workloads[2].EndToEnd.Metrics["throughput_per_s"] = 300 }, false},
		{"allocs grew", func(rf *resultFile) { rf.Workloads[1].PerLayer.Metrics["allocs_per_op"] = 1.1 }, true},
		{"per-layer moved", func(rf *resultFile) { rf.Workloads[1].PerLayer.Metrics["queue.pbq_rtt_8B_ns"] = 9 }, false},
		{"metric missing", func(rf *resultFile) { delete(rf.Workloads[3].EndToEnd.Metrics, "setup_s") }, true},
		{"workload missing", func(rf *resultFile) { rf.Workloads = rf.Workloads[1:] }, true},
		{"verification failed", func(rf *resultFile) { rf.Workloads[4].EndToEnd.Failed = 2 }, true},
	}
	for _, tc := range cases {
		other := syntheticResult(t, dir, "b.json", tc.edit)
		var sb strings.Builder
		err := compareFiles(base, other, &sb)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v\n%s", tc.name, err, tc.wantErr, sb.String())
		}
	}
	if err := compareFiles(base, filepath.Join(dir, "absent.json"), io.Discard); err == nil {
		t.Error("a missing file compared clean")
	}
}
