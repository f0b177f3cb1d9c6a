package probes

import "prepare/benchmark/stats"

func init() {
	register(Probe{
		Name: "control_tick",
		Metrics: []Metric{
			lower("control.train_ms", "ms"),
			lower("control.retrain_tick_ms_p50", "ms"),
			lower("control.untrained_tick_ns_per_vm", "ns"),
			lower("control.trained_tick_us_per_vm", "us"),
			lower("control.offtick_ns", "ns"),
			lower("control.allocs_per_vm_step", "count"),
			lower("control.alerts_per_tick", "count"),
		},
		Run: runControlTick,
	})
}

// runControlTick replays the capture through one control loop over a
// replay substrate — the tenant a server shard or an engine shard steps
// — and reports each kind of tick on its own: the training tick, the
// retrain ticks, the sampling ticks before and after training, and the
// four of every five ticks that fall between sampling instants.
func runControlTick(c *Capture, env Env) ([]float64, error) {
	run, err := c.runControl(nil)
	if err != nil {
		return nil, err
	}
	vms := float64(len(c.VMs))
	return []float64{
		run.trainMs,
		stats.Median(run.retrainMs),
		stats.Median(run.untrainedNs) / vms,
		run.trainedTickNs() / vms / 1e3,
		stats.Median(run.offNs),
		run.allocs,
		float64(run.alerts) / float64(len(run.trainedNs)+len(run.retrainMs)),
	}, nil
}
