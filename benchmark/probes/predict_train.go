package probes

import (
	"time"

	"prepare/benchmark/stats"
)

func init() {
	register(Probe{
		Name: "predict_train",
		Metrics: []Metric{
			lower("predict.train_ms_per_vm", "ms"),
			lower("predict.retrain_us_per_vm", "us"),
		},
		Run: runPredictTrain,
	})
}

// runPredictTrain fits every captured VM's predictor on the training
// prefix (discretizers, chains, count table, Chow-Liu tree), streams
// the timed instants in, and rebuilds the classifier from the
// accumulated statistics — the work of the training tick and of a
// periodic retrain tick, per VM.
func runPredictTrain(c *Capture, env Env) ([]float64, error) {
	vms := len(c.VMs)
	if env.Smoke {
		vms = 2
	}
	var trainMs, retrainUs []float64
	for i := 0; i < vms; i++ {
		t0 := time.Now()
		p, err := c.trainedPredictor(i)
		if err != nil {
			return nil, err
		}
		trainMs = append(trainMs, float64(time.Since(t0).Nanoseconds())/1e6)
		for k := c.TrainTicks; k < c.Ticks; k++ {
			if err := p.Update(c.Row(k, i)[:], c.Label(k, i)); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		if err := p.Retrain(); err != nil {
			return nil, err
		}
		retrainUs = append(retrainUs, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	return []float64{stats.Median(trainMs), stats.Median(retrainUs)}, nil
}
