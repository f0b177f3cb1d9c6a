package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/internal/markov"
)

func init() {
	register(Probe{
		Name: "markov",
		Metrics: []Metric{
			lower("markov.observe_ns_per_vm", "ns"),
			lower("markov.predict_series_ns_per_vm", "ns"),
		},
		Run: runMarkov,
	})
}

// runMarkov streams every captured VM's timed instants through its
// thirteen 2-dependent chains: Observe on each, then one batched
// look-ahead propagation into a shared arena. "Per VM" is all thirteen
// attributes of one VM at one instant.
func runMarkov(c *Capture, env Env) ([]float64, error) {
	vms := len(c.VMs)
	if env.Smoke {
		vms = 2
	}
	var observeNs, predictNs []float64
	var arena markov.BatchArena
	for i := 0; i < vms; i++ {
		bins, err := c.binned(i)
		if err != nil {
			return nil, err
		}
		chains, err := fittedChains(bins, c.TrainTicks)
		if err != nil {
			return nil, err
		}
		var obs, pred time.Duration
		for k := c.TrainTicks; k < c.Ticks; k++ {
			t0 := time.Now()
			for a, ch := range chains {
				if err := ch.Observe(bins[k][a]); err != nil {
					return nil, err
				}
			}
			t1 := time.Now()
			series := markov.PredictSeriesBatch(chains, lookaheadSteps, &arena)
			pred += time.Since(t1)
			obs += t1.Sub(t0)
			sink += series[0][0][0]
		}
		n := float64(c.Ticks - c.TrainTicks)
		observeNs = append(observeNs, float64(obs.Nanoseconds())/n)
		predictNs = append(predictNs, float64(pred.Nanoseconds())/n)
	}
	return []float64{stats.Median(observeNs), stats.Median(predictNs)}, nil
}
