package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/internal/predict"
)

func init() {
	register(Probe{
		Name: "predict",
		Metrics: []Metric{
			lower("predict.update_ns_per_vm", "ns"),
			lower("predict.score_window_us_per_vm", "us"),
			lower("predict.forecast_max_ns_per_vm", "ns"),
			lower("predict.filter_offer_ns", "ns"),
		},
		Run: runPredict,
	})
}

// trainedPredictor fits VM i's predictor on the training prefix the
// way the control loop does under periodic retraining: from sufficient
// statistics, with the look-back relabeling.
func (c *Capture) trainedPredictor(i int) (*predict.Predictor, error) {
	p, err := predict.New(predict.Config{}, predict.AttributeNames())
	if err != nil {
		return nil, err
	}
	rows, labels := c.Series(i, 0, c.TrainTicks)
	if err := p.TrainIncremental(rows, labels, lookaheadSteps); err != nil {
		return nil, err
	}
	return p, nil
}

// runPredict streams every captured VM's timed instants through its
// trained predictor, timing the tick's three predictor calls apart:
// Update (advance the chains and fold the row into the count table),
// the batched look-ahead window score, and the CPU forecast the
// placement inventory is fed. The alarm filter is timed on the
// resulting decisions.
func runPredict(c *Capture, env Env) ([]float64, error) {
	vms := len(c.VMs)
	if env.Smoke {
		vms = 2
	}
	fleet := predict.NewFleet()
	filter, err := predict.NewAlarmFilter(predict.DefaultAlarmK, predict.DefaultAlarmW)
	if err != nil {
		return nil, err
	}
	var updateNs, scoreUs, forecastNs, offerNs []float64
	for i := 0; i < vms; i++ {
		p, err := c.trainedPredictor(i)
		if err != nil {
			return nil, err
		}
		var upd, score, fc, offer time.Duration
		for k := c.TrainTicks; k < c.Ticks; k++ {
			row := c.Row(k, i)[:]
			t0 := time.Now()
			if err := p.Update(row, c.Label(k, i)); err != nil {
				return nil, err
			}
			t1 := time.Now()
			dec, err := fleet.ScoreWindow(p, lookaheadS)
			if err != nil {
				return nil, err
			}
			t2 := time.Now()
			v, _ := p.ForecastValueMax(0, lookaheadS)
			t3 := time.Now()
			if filter.Offer(dec.Score > 2) {
				sink++
			}
			offer += time.Since(t3)
			upd += t1.Sub(t0)
			score += t2.Sub(t1)
			fc += t3.Sub(t2)
			sink += v
		}
		n := float64(c.Ticks - c.TrainTicks)
		updateNs = append(updateNs, float64(upd.Nanoseconds())/n)
		scoreUs = append(scoreUs, float64(score.Nanoseconds())/n/1e3)
		forecastNs = append(forecastNs, float64(fc.Nanoseconds())/n)
		offerNs = append(offerNs, float64(offer.Nanoseconds())/n)
	}
	return []float64{stats.Median(updateNs), stats.Median(scoreUs), stats.Median(forecastNs), stats.Median(offerNs)}, nil
}
