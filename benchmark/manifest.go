package main

import (
	"encoding/json"

	"prepare/benchmark/probes"
)

// runSeconds is the length of one timed window, and the -seconds
// default.
const runSeconds = 10

// metricDecl declares one reported metric. Bound is the share of the
// parent commit's median an end-to-end metric may worsen by before a
// change counts as a regression; per-layer metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics of an untraced run. Every workload reports
// every one; the README says what each workload's latency times. Every
// bound is the manifest's limit of a quarter: on the two-vCPU sandbox
// the memory-bound fleet_tan drifts by a fifth between two sets of ten
// runs of the same code (README, "Steadiness"), and a bound under the
// instrument's own noise would reject the instrument.
var endToEnd = []metricDecl{
	{Name: "vm_steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// benchLayer lists the traced run's own diagnostics, reported next to
// the probes' per-layer metrics.
var benchLayer = []metricDecl{
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "bench.trace_spans", Unit: "count", Better: "lower"},
	{Name: "bench.latency_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "bench.latency_tail_pct", Unit: "%", Better: "higher"},
	{Name: "bench.latency_samples", Unit: "count", Better: "higher"},
}

// perLayer lists the metrics of a traced run.
func perLayer() []metricDecl {
	out := append([]metricDecl(nil), benchLayer...)
	for _, m := range probes.Declared() {
		out = append(out, metricDecl{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return out
}

func declByName(decls []metricDecl) map[string]metricDecl {
	out := make(map[string]metricDecl, len(decls))
	for _, d := range decls {
		out[d.Name] = d
	}
	return out
}

// manifest renders BENCHMARK.json from the declarations above, so the
// file the driver reads cannot drift from what the program reports.
func manifest() []byte {
	type workloadDecl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metricDecl   `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, workloadDecl{w.name, w.why})
	}
	for _, m := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, layerDecl{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers: cannot fail
	}
	return append(b, '\n')
}
