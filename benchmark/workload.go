package main

import (
	"time"

	"prepare/benchmark/probes"
	"prepare/benchmark/trace"
)

// sizing selects full-size workloads or the tiny ones the -smoke pass
// and the tests run.
type sizing struct {
	smoke bool
}

// smokeCaptureTicks is how many timed instants the probes replay under
// -smoke: just past the control probe's first retrain.
const smokeCaptureTicks = 45

// pick returns full or, under -smoke, small.
func (s sizing) pick(full, small int) int {
	if s.smoke {
		return small
	}
	return full
}

// detail is one of a workload's own named numbers (alert latency
// percentiles, generator lateness, quality counts): printed in the
// report under the name later issues refer to, never gated.
type detail struct {
	name, unit string
	value      float64
}

// runStats is what one timed pass of a workload measured.
type runStats struct {
	// ops is the number of operations attempted (the unit is the
	// workload's: a sampling tick, a frame, an instant's batches, a
	// scenario pair) and failed how many of them failed.
	ops, failed int64
	// vmSteps is the number of VM samples the control loops consumed.
	vmSteps int64
	// elapsed is the timed window: first operation issued to last result
	// observed (for the served workloads: first send to drained).
	elapsed time.Duration
	// latMs holds the workload's user-visible latency samples, in
	// milliseconds (see the README's table for what each workload times).
	latMs []float64
	// details carries the workload's own named numbers for the report.
	details []detail
	// notes explains failed operations.
	notes []string
}

func (rs *runStats) detail(name, unit string, value float64) {
	rs.details = append(rs.details, detail{name, unit, value})
}

// instance is one set-up copy of a workload, ready for its timed pass.
type instance interface {
	// run drives the workload for about d and returns what it measured.
	// A non-nil tracer wraps every call into a layer in a span; nil runs
	// the identical path untraced.
	run(d time.Duration, tr *trace.Tracer) (runStats, error)
	// digest fingerprints the outputs of the pass up to and including
	// simulated second upTo (alert and actuation streams); workloads
	// without a simulated clock ignore upTo.
	digest(upTo int64) string
	// horizon is the last simulated second the pass reached.
	horizon() int64
	// close releases the instance.
	close()
}

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	// setup builds a fresh instance and brings it to the start of its
	// timed window; its duration is one setup_s sample.
	setup func(seed int64, sz sizing) (instance, error)
	// verify checks the timed pass's outputs against an independent
	// reference and returns how many operations count as failed.
	verify func(seed int64, sz sizing, inst instance) (int64, []string)
	// capture regenerates the inputs the workload fed the system, for
	// the per-layer probes to replay through each layer in isolation.
	capture func(seed int64, sz sizing) (*probes.Capture, error)
}

// workloads lists the five workloads in report order.
func workloads() []workload {
	return []workload{fleetTAN(), fleetEWMA(), ingestFlood(), servedPaced(), paperGrid()}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
