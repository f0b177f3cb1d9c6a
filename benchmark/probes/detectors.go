package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/internal/detector"
	"prepare/internal/predict"
)

// Shared by the four detector probes.

// detectorStep trains one detector of the given spec per captured VM on
// the training prefix and streams the timed instants through the calls
// the control loop makes per VM per sampling tick — Update, Score, and
// Verdict when the decision is abnormal. It returns the median over the
// first vms VMs of the mean step time in nanoseconds and of heap
// allocations per step.
func detectorStep(c *Capture, env Env, specText string, vms int) (ns, allocs float64, err error) {
	spec, err := detector.ParseSpec(specText)
	if err != nil {
		return 0, 0, err
	}
	if env.Smoke {
		vms = 2
	}
	var stepNs, stepAllocs []float64
	for i := 0; i < vms; i++ {
		d, err := predict.NewDetector(spec, predict.DetectorOptions{
			Names:           predict.AttributeNames(),
			Margin:          2,
			LookbackSamples: lookaheadSteps,
			Incremental:     true,
			Seed:            c.Seed,
			Fleet:           predict.NewFleet(),
		})
		if err != nil {
			return 0, 0, err
		}
		rows, labels := c.Series(i, 0, c.TrainTicks)
		if err := d.Train(rows, labels); err != nil {
			return 0, 0, err
		}
		m0 := mallocs()
		t0 := time.Now()
		for k := c.TrainTicks; k < c.Ticks; k++ {
			if err := d.Update(c.Row(k, i)[:], c.Label(k, i)); err != nil {
				return 0, 0, err
			}
			dec, err := d.Score(lookaheadS)
			if err != nil {
				return 0, 0, err
			}
			if dec.Abnormal {
				v, err := d.Verdict()
				if err != nil {
					return 0, 0, err
				}
				sink += v.Score
			}
		}
		n := float64(c.Ticks - c.TrainTicks)
		stepNs = append(stepNs, float64(time.Since(t0).Nanoseconds())/n)
		stepAllocs = append(stepAllocs, float64(mallocs()-m0)/n)
	}
	return stats.Median(stepNs), stats.Median(stepAllocs), nil
}
