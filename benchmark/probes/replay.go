package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/benchmark/world"
	"prepare/internal/replay"
)

func init() {
	register(Probe{
		Name: "replay",
		Metrics: []Metric{
			lower("replay.append_ns_per_sample", "ns"),
			lower("replay.advance_ns_per_vm", "ns"),
		},
		Run: runReplay,
	})
}

// runReplay pushes the capture through an appendable replay substrate
// the way a shard worker does: append one instant's samples, then
// advance the cursor second by second up to it.
func runReplay(c *Capture, env Env) ([]float64, error) {
	ids := c.VMIDs()
	var appendNs, advanceNs []float64
	for rep := 0; rep < env.Iters(20)+1; rep++ {
		sub, err := replay.NewAppendable(ids, replay.Config{})
		if err != nil {
			return nil, err
		}
		var app, adv time.Duration
		for k := 0; k < c.Ticks; k++ {
			t0 := time.Now()
			for i, id := range ids {
				if err := sub.Append(id, c.Sample(k, i)); err != nil {
					return nil, err
				}
			}
			t1 := time.Now()
			for t := SimTime(k) - world.SamplingS + 1; t <= SimTime(k); t++ {
				sub.Advance(t)
			}
			app += t1.Sub(t0)
			adv += time.Since(t1)
		}
		n := float64(c.Ticks * len(ids))
		appendNs = append(appendNs, float64(app.Nanoseconds())/n)
		advanceNs = append(advanceNs, float64(adv.Nanoseconds())/(n*world.SamplingS))
	}
	return []float64{stats.Median(appendNs), stats.Median(advanceNs)}, nil
}
