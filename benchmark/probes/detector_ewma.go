package probes

func init() {
	register(Probe{
		Name:    "detector_ewma",
		Metrics: []Metric{lower("detector.ewma_step_ns_per_vm", "ns")},
		Run: func(c *Capture, env Env) ([]float64, error) {
			ns, _, err := detectorStep(c, env, "ewma", len(c.VMs))
			return []float64{ns}, err
		},
	})
}
