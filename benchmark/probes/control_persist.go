package probes

import (
	"bytes"
	"time"

	"prepare/benchmark/stats"
)

func init() {
	register(Probe{
		Name: "control_persist",
		Metrics: []Metric{
			lower("control.save_models_ms", "ms"),
			lower("control.restore_models_ms", "ms"),
			lower("control.snapshot_bytes_per_vm", "B"),
		},
		Run: runControlPersist,
	})
}

// runControlPersist snapshots a trained control loop's models and
// restores them into a fresh one: the payload of a server checkpoint.
func runControlPersist(c *Capture, env Env) ([]float64, error) {
	run, err := c.runControl(nil)
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	var saveMs, restoreMs []float64
	reps := 5
	if env.Smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		snap.Reset()
		t0 := time.Now()
		if err := run.ctl.SaveModels(&snap); err != nil {
			return nil, err
		}
		saveMs = append(saveMs, float64(time.Since(t0).Nanoseconds())/1e6)

		fresh, err := c.newController(nil)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := fresh.RestoreModels(bytes.NewReader(snap.Bytes())); err != nil {
			return nil, err
		}
		restoreMs = append(restoreMs, float64(time.Since(t1).Nanoseconds())/1e6)
	}
	return []float64{stats.Median(saveMs), stats.Median(restoreMs), float64(snap.Len()) / float64(len(c.VMs))}, nil
}
