package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/internal/infer"
	"prepare/internal/prevent"
	"prepare/internal/replay"
)

func init() {
	register(Probe{
		Name:    "prevent",
		Metrics: []Metric{lower("prevent.plan_us", "us")},
		Run:     runPrevent,
	})
}

// runPrevent plans and executes the first prevention action for one
// diagnosed alert per captured VM — pick the resource, size the scaling
// step, actuate it on a replay substrate that only book-keeps.
func runPrevent(c *Capture, env Env) ([]float64, error) {
	v, err := c.alertVerdict(0)
	if err != nil {
		return nil, err
	}
	var us []float64
	for rep := 0; rep < env.Iters(40)+1; rep++ {
		sub, err := replay.New(c.Traces(0, c.TrainTicks), replay.Config{})
		if err != nil {
			return nil, err
		}
		planner, err := prevent.NewPlanner(sub, prevent.ScalingFirst, prevent.Config{})
		if err != nil {
			return nil, err
		}
		for _, id := range c.VMIDs() {
			dg, err := infer.Diagnose(id, v)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			step, err := planner.Prevent(SimTime(c.TrainTicks), dg, 0)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return nil, err
			}
			sink += float64(step.Kind)
		}
	}
	return []float64{stats.Median(us)}, nil
}
