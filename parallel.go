package prepare

import (
	"prepare/internal/experiment"
	"prepare/internal/pool"
)

// BatchOptions configures a RunAll batch (worker count, cancellation
// context).
type BatchOptions = experiment.BatchOptions

// RunAll executes every scenario on a bounded worker pool and returns
// the results in input order, regardless of completion order. Each
// scenario run is fully self-contained — its own simulator, seeded
// RNGs, and clock — so the results are bit-identical to running the
// same scenarios serially. The first failing scenario cancels the rest
// and is identified (index, app, fault, scheme, seed) in the returned
// error.
func RunAll(scenarios []Scenario, opts BatchOptions) ([]Result, error) {
	return experiment.RunAll(scenarios, opts)
}

// SetParallelism sets the worker-pool size used by every sweep entry
// point (Repeat, the figure generators, accuracy sweeps, Table1) and by
// RunAll when BatchOptions.Workers is zero. n <= 0 restores the default
// of runtime.GOMAXPROCS(0). Safe to call concurrently.
func SetParallelism(n int) { pool.SetDefaultWorkers(n) }

// Parallelism returns the current worker-pool size sweeps will use.
func Parallelism() int { return pool.DefaultWorkers() }
