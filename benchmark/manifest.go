package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

const (
	manifestName = "BENCHMARK.json"
	runSeconds   = 10 // how long the driver lets one run measure
)

// manifest mirrors BENCHMARK.json, key for key.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestE2E      `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifestFromTables builds the manifest the workload and metric tables
// define; BENCHMARK.json is this, printed.
func manifestFromTables() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// readManifest loads BENCHMARK.json from the checkout root.
func readManifest() (manifest, error) {
	var m manifest
	root, err := repoRoot()
	if err != nil {
		return m, err
	}
	b, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", manifestName, err)
	}
	return m, nil
}
