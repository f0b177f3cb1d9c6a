package probes

func init() {
	register(Probe{
		Name:    "detector_zrobust",
		Metrics: []Metric{lower("detector.zrobust_step_ns_per_vm", "ns")},
		Run: func(c *Capture, env Env) ([]float64, error) {
			ns, _, err := detectorStep(c, env, "zrobust", len(c.VMs))
			return []float64{ns}, err
		},
	})
}
