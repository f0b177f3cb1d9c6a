package experiment

import (
	"testing"

	"prepare/internal/control"
	"prepare/internal/faults"
	"prepare/internal/infer"
	"prepare/internal/metrics"
)

// TestWorkloadChangeClassification validates the paper's workload-vs-
// fault discrimination on real monitoring data: a bottleneck (workload
// surge) produces simultaneous change points on every component, while a
// memory leak perturbs only the faulty VM's inbound traffic pattern.
func TestWorkloadChangeClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// System S runs a steady workload, so change points carry clean
	// semantics (the RUBiS diurnal trace legitimately shifts on every
	// component all the time, which IS a workload change).
	classify := func(fault faults.Kind) bool {
		ds, err := CollectDataset(Scenario{App: SystemS, Fault: fault, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		wd, err := infer.NewWorkloadDetector(len(ds.Order), 24, 20)
		if err != nil {
			t.Fatal(err)
		}
		sawChange := false
		// Replay the samples in lockstep.
		n := len(ds.PerVM[ds.Order[0]])
		line := make([]float64, len(ds.Order))
		for i := 0; i < n; i++ {
			for k, id := range ds.Order {
				line[k] = ds.PerVM[id][i].Values.Get(metrics.NetIn)
			}
			if err := wd.OfferLine(ds.PerVM[ds.Order[0]][i].Time, line); err != nil {
				t.Fatal(err)
			}
			if wd.WorkloadChange(ds.PerVM[ds.Order[0]][i].Time) {
				sawChange = true
			}
		}
		return sawChange
	}

	if !classify(faults.Bottleneck) {
		t.Error("a workload surge should be classified as a workload change")
	}
	if classify(faults.MemoryLeak) {
		t.Error("a single-VM memory leak must not be classified as a workload change")
	}
}

// TestBottleneckActsOnAllTiers: under a workload surge PREPARE's
// workload-change widening lets it scale several components, not just
// the earliest-alerting one.
func TestBottleneckActsOnAllTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res, err := Run(Scenario{App: RUBiS, Fault: faults.Bottleneck,
		Scheme: control.SchemePREPARE, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	acted := map[string]bool{}
	for _, s := range res.Steps {
		acted[string(s.VM)] = true
	}
	if !acted["vm-db"] {
		t.Errorf("the saturating DB tier was never scaled; steps: %v", res.Steps)
	}
}
