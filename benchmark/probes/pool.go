package probes

import (
	"context"
	"time"

	"prepare/internal/control"
	"prepare/internal/experiment"
	"prepare/internal/pool"
)

func init() {
	register(Probe{
		Name:    "pool",
		Metrics: []Metric{higher("pool.speedup_x", "x")},
		Run:     runPool,
	})
}

// runPool runs the same batch of self-contained reactive scenarios over
// the worker pool with one worker and with two, on two processors: the
// scaling every multi-run sweep gets from the pool on this machine.
func runPool(c *Capture, env Env) ([]float64, error) {
	scs := c.probeScenarios(control.SchemeReactive, env)
	scs = append(scs, scs...)
	seconds := func(workers int) (float64, error) {
		t0 := time.Now()
		err := pool.Runner{Workers: workers}.ForEach(context.Background(), len(scs), func(_ context.Context, i int) error {
			_, err := experiment.Run(scs[i])
			return err
		})
		return time.Since(t0).Seconds(), err
	}
	var one, two float64
	err := withTwoProcs(func() (err error) {
		if one, err = seconds(1); err != nil {
			return err
		}
		two, err = seconds(2)
		return err
	})
	if err != nil {
		return nil, err
	}
	return []float64{one / two}, nil
}
