package probes

import "prepare/internal/telemetry"

func init() {
	register(Probe{
		Name:    "telemetry",
		Metrics: []Metric{lower("telemetry.enabled_overhead_frac", "frac")},
		Run:     runTelemetry,
	})
}

// runTelemetry is the control probe's trained tick with a telemetry
// registry attached against the same tick with none: what turning
// instrumentation on costs. A diagnostic — it is the difference of two
// noisy medians and may read slightly negative.
func runTelemetry(c *Capture, env Env) ([]float64, error) {
	without, err := c.runControl(nil)
	if err != nil {
		return nil, err
	}
	with, err := c.runControl(telemetry.New(telemetry.Options{}))
	if err != nil {
		return nil, err
	}
	return []float64{with.trainedTickNs()/without.trainedTickNs() - 1}, nil
}
