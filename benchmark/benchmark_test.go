package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesTables pins BENCHMARK.json to the workload and metric
// tables and to the limits the driver puts on the file, so a later change
// cannot silently rename or reshape the yardstick.
func TestManifestMatchesTables(t *testing.T) {
	got, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	want := manifestFromTables()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables; regenerate it with -print-manifest\n got: %+v\nwant: %+v", got, want)
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1..64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", d.Name)
		}
	}
}

// TestCheckMode runs every workload at 1/50 size through both passes with
// verification on and asserts that exactly the manifest's names are emitted,
// nothing failed, and the metrics every workload must have are there.
func TestCheckMode(t *testing.T) {
	out := t.TempDir()
	if err := runAll(7, 0.2, checkScale, out); err != nil {
		t.Fatal(err)
	}
	rf, err := readResult(filepath.Join(out, "result-seed7.json"))
	if err != nil {
		t.Fatal(err)
	}
	man := manifestFromTables()
	if len(rf.Workloads) != len(man.Workloads) {
		t.Fatalf("%d workloads in the result file, want %d", len(rf.Workloads), len(man.Workloads))
	}
	for i, wr := range rf.Workloads {
		if wr.Name != man.Workloads[i].Name {
			t.Errorf("workload %d is %q, want %q", i, wr.Name, man.Workloads[i].Name)
		}
		var e2e, layers []string
		for _, m := range man.EndToEnd {
			e2e = append(e2e, m.Name)
		}
		for _, m := range man.PerLayer {
			layers = append(layers, m.Name)
		}
		sameNames(t, wr.Name+" end-to-end", sortedKeys(wr.EndToEnd.Metrics), e2e)
		sameNames(t, wr.Name+" per-layer", sortedKeys(wr.PerLayer.Metrics), layers)
		for _, pass := range []*runResult{wr.EndToEnd, wr.PerLayer} {
			if pass.Attempted < 1 || pass.Failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", wr.Name, pass.Attempted, pass.Failed)
			}
		}
		for _, m := range e2e {
			if v := wr.EndToEnd.Metrics[m]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wr.Name, m, v)
			}
		}
		if v := wr.PerLayer.Metrics["allocs_per_op"]; v < 0 {
			t.Errorf("%s: allocs_per_op = %v", wr.Name, v)
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+wr.Name+".json")); err != nil {
			t.Errorf("%s: no span dump: %v", wr.Name, err)
		}
	}

	// The two ladders are measured in one run each, and every tax is the
	// difference of its two rungs.
	layer := func(workload, metric string) float64 {
		for _, wr := range rf.Workloads {
			if wr.Name == workload {
				return wr.PerLayer.Metrics[metric]
			}
		}
		return 0
	}
	for _, tax := range []struct{ workload, tax, upper, lower string }{
		{"p2p-intra", "core.channel_tax_ns", "core.channel_rtt_8B_ns", "queue.pbq_rtt_8B_ns"},
		{"p2p-intra", "pure.wrapper_tax_ns", "pure.comm_rtt_8B_ns", "core.channel_rtt_8B_ns"},
		{"p2p-intra", "comm.backend_tax_ns", "comm.backend_rtt_8B_ns", "pure.comm_rtt_8B_ns"},
		{"xnode-tcp", "transport.link_tax_ns", "transport.link_rtt_8B_ns", "transport.raw_tcp_rtt_8B_ns"},
		{"xnode-tcp", "core.remote_tax_ns", "rtt_8B_ns_p50", "transport.link_rtt_8B_ns"},
		{"coll-intra", "collective.comm_tax_ns", "allreduce_8B_ns_p50", "collective.sptd_allreduce_8B_ns"},
	} {
		up, lo := layer(tax.workload, tax.upper), layer(tax.workload, tax.lower)
		if up <= 0 || lo <= 0 {
			t.Errorf("%s: rungs %s = %v, %s = %v, want both measured", tax.workload, tax.upper, up, tax.lower, lo)
		}
		if got := layer(tax.workload, tax.tax); got != up-lo {
			t.Errorf("%s: %s = %v, want %s - %s = %v", tax.workload, tax.tax, got, tax.upper, tax.lower, up-lo)
		}
	}

	// A span dump is valid Chrome trace JSON with nested spans.
	raw, err := os.ReadFile(filepath.Join(out, "spans-comd-balanced.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("span dump is not JSON: %v", err)
	}
	calls := 0
	for _, ev := range dump.TraceEvents {
		if ev.Name == "Sendrecv" && ev.Ph == "X" {
			calls++
		}
	}
	if calls == 0 {
		t.Error("comd-balanced span dump has no decorated Sendrecv spans")
	}
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	wantSet := map[string]bool{}
	for _, n := range want {
		wantSet[n] = true
	}
	for _, n := range got {
		if !wantSet[n] {
			t.Errorf("%s: emitted %q, which BENCHMARK.json does not list", what, n)
		}
		delete(wantSet, n)
	}
	for n := range wantSet {
		t.Errorf("%s: %q is in BENCHMARK.json but was not emitted", what, n)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
