package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the -seconds the driver passes: with the frozen rates it
// makes each measured phase take about ten seconds on the seed commit.
const runSeconds = 10

// manifest renders BENCHMARK.json from the catalogue and the workload
// table, so the file at the repository root cannot drift from what the
// command prints (the test compares them byte for byte):
//
//	go run ./benchmark -manifest > BENCHMARK.json
func manifest(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, c := range configs {
		doc.Workloads = append(doc.Workloads, workload{c.name, c.why})
	}
	for _, d := range catalogue {
		if d.gated {
			doc.EndToEnd = append(doc.EndToEnd, gated{d.name, d.unit, d.better, d.bound})
		} else {
			doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
