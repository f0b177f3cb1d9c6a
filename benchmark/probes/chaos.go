package probes

func init() {
	register(Probe{
		Name:    "chaos",
		Metrics: []Metric{lower("chaos.sample_overhead_ns_per_vm", "ns")},
		Run:     runChaos,
	})
}

// runChaos is the monitor probe twice: what the fault-injecting
// decorator adds to one VM's collection when it sits between the
// substrate and the sampler.
func runChaos(c *Capture, env Env) ([]float64, error) {
	plain, err := collectNsPerVM(c, env, false)
	if err != nil {
		return nil, err
	}
	decorated, err := collectNsPerVM(c, env, true)
	if err != nil {
		return nil, err
	}
	return []float64{decorated - plain}, nil
}
