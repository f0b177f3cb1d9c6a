package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/benchmark/world"
	"prepare/internal/chaos"
	"prepare/internal/columnar"
	"prepare/internal/monitor"
	"prepare/internal/replay"
	"prepare/internal/substrate"
)

func init() {
	register(Probe{
		Name:    "monitor",
		Metrics: []Metric{lower("monitor.collect_ns_per_vm", "ns")},
		Run: func(c *Capture, env Env) ([]float64, error) {
			ns, err := collectNsPerVM(c, env, false)
			return []float64{ns}, err
		},
	})
}

// chaosRate is the per-opportunity fault rate of the chaos probe, the
// rate served_paced runs under.
const chaosRate = 0.02

// collectNsPerVM replays the capture through a replay substrate —
// behind a chaos decorator when withChaos is set — and times the
// sampler collecting each instant into a columnar store: per VM, one
// Sample read, sanitization, the series append and the column writes.
func collectNsPerVM(c *Capture, env Env, withChaos bool) (float64, error) {
	ids := c.VMIDs()
	var perVM []float64
	for rep := 0; rep < env.Iters(20)+1; rep++ {
		sub, err := replay.New(c.Traces(0, c.Ticks), replay.Config{})
		if err != nil {
			return 0, err
		}
		var source substrate.MetricSource = sub
		if withChaos {
			if source, err = chaos.New(sub, chaos.Uniform(c.Seed, chaosRate)); err != nil {
				return 0, err
			}
		}
		sampler, err := monitor.NewSampler(source, ids, monitor.Config{NoiseStd: -1, Seed: c.Seed, WindowSamples: 128})
		if err != nil {
			return 0, err
		}
		store, err := columnar.New(len(ids), 4)
		if err != nil {
			return 0, err
		}
		var total time.Duration
		for k := 0; k < c.Ticks; k++ {
			now := SimTime(k)
			for s := now - world.SamplingS + 1; s <= now; s++ {
				if s >= 0 {
					sampler.Advance(s)
				}
			}
			t0 := time.Now()
			err := sampler.CollectColumnar(now, c.Label(k, 0), store)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		perVM = append(perVM, float64(total.Nanoseconds())/float64(c.Ticks*len(ids)))
	}
	return stats.Median(perVM), nil
}
