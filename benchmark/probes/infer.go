package probes

import (
	"prepare/internal/detector"
	"prepare/internal/infer"
	"prepare/internal/predict"
)

func init() {
	register(Probe{
		Name:    "infer",
		Metrics: []Metric{lower("infer.diagnose_ns", "ns")},
		Run:     runInfer,
	})
}

// alertVerdict returns the attribution of VM i's first abnormal
// decision over the timed instants under a trained TAN detector — what
// the control loop hands to diagnosis when an alert is confirmed — or,
// when the VM never alerts, the attribution of its last row.
func (c *Capture) alertVerdict(i int) (detector.Verdict, error) {
	d, err := predict.NewDetector(detector.Spec{Kind: detector.KindTAN}, predict.DetectorOptions{
		Names: predict.AttributeNames(), Margin: 2, LookbackSamples: lookaheadSteps, Incremental: true,
	})
	if err != nil {
		return detector.Verdict{}, err
	}
	rows, labels := c.Series(i, 0, c.TrainTicks)
	if err := d.Train(rows, labels); err != nil {
		return detector.Verdict{}, err
	}
	for k := c.TrainTicks; k < c.Ticks; k++ {
		if err := d.Update(c.Row(k, i)[:], c.Label(k, i)); err != nil {
			return detector.Verdict{}, err
		}
		dec, err := d.Score(lookaheadS)
		if err != nil {
			return detector.Verdict{}, err
		}
		if dec.Abnormal {
			return d.Verdict()
		}
	}
	return d.Current(c.Row(c.Ticks-1, i)[:])
}

// runInfer ranks the implicated metrics of one alert: the diagnosis
// step between a confirmed alert and its prevention plan.
func runInfer(c *Capture, env Env) ([]float64, error) {
	v, err := c.alertVerdict(0)
	if err != nil {
		return nil, err
	}
	id := c.VMIDs()[0]
	const calls = 1000
	var diagErr error
	ns := timeIt(env.Iters(100), func() {
		for n := 0; n < calls; n++ {
			dg, err := infer.Diagnose(id, v)
			if err != nil {
				diagErr = err
			}
			sink += dg.Score
		}
	})
	if diagErr != nil {
		return nil, diagErr
	}
	return []float64{ns / calls}, nil
}
