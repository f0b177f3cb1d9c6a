package experiment

import (
	"context"
	"fmt"

	"prepare/internal/pool"
	"prepare/internal/telemetry"
)

// BatchOptions configures RunAll.
type BatchOptions struct {
	// Workers bounds concurrent scenario runs; <= 0 means
	// pool.DefaultWorkers().
	Workers int
	// Context cancels the batch early when done; nil means Background.
	Context context.Context
}

func (o BatchOptions) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// RunAll executes every scenario on a bounded worker pool and returns
// the results in input order, regardless of completion order. Scenario
// runs are fully self-contained (per-run simulators, seeded RNGs, no
// shared clock), so the results are bit-identical to running the same
// scenarios serially. The first failing scenario cancels the rest and is
// identified — app, fault, scheme, and seed — in the returned error.
func RunAll(scenarios []Scenario, opts BatchOptions) ([]Result, error) {
	results := make([]Result, len(scenarios))
	r := pool.Runner{Workers: opts.Workers}
	// Batch counters live on the process-wide registry (nil-safe when
	// telemetry is disabled). started is incremented only when a task's
	// body actually begins — tasks skipped after a mid-batch cancellation
	// never count, so started == completed + failed always holds and a
	// failing batch cannot double-count work a cancelled worker never did.
	g := telemetry.Default()
	started := g.Counter("experiment.runs.started")
	completed := g.Counter("experiment.runs.completed")
	failed := g.Counter("experiment.runs.failed")
	err := r.ForEach(opts.context(), len(scenarios), func(_ context.Context, i int) error {
		started.Inc()
		res, err := Run(scenarios[i])
		if err != nil {
			failed.Inc()
			sc := scenarios[i].withDefaults()
			return fmt.Errorf("experiment: scenario %d (%v/%v/%v seed %d): %w",
				i, sc.App, sc.Fault, sc.Scheme, sc.Seed, err)
		}
		completed.Inc()
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
