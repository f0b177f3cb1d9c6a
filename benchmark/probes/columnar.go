package probes

import (
	"prepare/internal/columnar"
	"prepare/internal/metrics"
)

func init() {
	register(Probe{
		Name: "columnar",
		Metrics: []Metric{
			lower("columnar.stage_commit_ns_per_vm", "ns"),
			lower("columnar.column_sweep_ns_per_vm", "ns"),
		},
		Run: runColumnar,
	})
}

// runColumnar stages and commits every captured instant into a store
// (the write side of a tick), then sweeps all thirteen attribute
// columns of the latest tick (the read side a fleet-level detector
// would use).
func runColumnar(c *Capture, env Env) ([]float64, error) {
	n := len(c.VMs)
	store, err := columnar.New(n, 4)
	if err != nil {
		return nil, err
	}
	write := timeIt(env.Iters(100), func() {
		for k := 0; k < c.Ticks; k++ {
			for i := 0; i < n; i++ {
				store.StageRow(i, c.Row(k, i))
			}
			store.Commit(SimTime(k), c.Label(k, 0))
		}
	})
	const sweeps = 1000
	read := timeIt(env.Iters(100), func() {
		for s := 0; s < sweeps; s++ {
			for _, a := range metrics.AllAttributes() {
				for _, v := range store.Column(a) {
					sink += v
				}
			}
		}
	})
	return []float64{write / float64(c.Ticks*n), read / float64(sweeps*n)}, nil
}
