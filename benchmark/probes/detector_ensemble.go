package probes

func init() {
	register(Probe{
		Name:    "detector_ensemble",
		Metrics: []Metric{lower("detector.ensemble_step_us_per_vm", "us")},
		Run: func(c *Capture, env Env) ([]float64, error) {
			// Half a millisecond a step: four VMs give a median without
			// taking two seconds.
			ns, _, err := detectorStep(c, env, "ensemble:tan+ewma", 4)
			return []float64{ns / 1e3}, err
		},
	})
}
