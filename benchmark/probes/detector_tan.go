package probes

func init() {
	register(Probe{
		Name: "detector_tan",
		Metrics: []Metric{
			lower("detector.tan_step_us_per_vm", "us"),
			lower("detector.tan_allocs_per_vm_step", "count"),
		},
		Run: func(c *Capture, env Env) ([]float64, error) {
			ns, allocs, err := detectorStep(c, env, "tan", len(c.VMs))
			return []float64{ns / 1e3, allocs}, err
		},
	})
}
