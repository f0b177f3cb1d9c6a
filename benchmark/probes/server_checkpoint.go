package probes

import (
	"bytes"
	"time"

	"prepare/benchmark/stats"
	"prepare/internal/control"
	"prepare/internal/server"
)

func init() {
	register(Probe{
		Name: "server_checkpoint",
		Metrics: []Metric{
			lower("server.checkpoint_ms_p50", "ms"),
			lower("server.checkpoint_bytes", "B"),
			lower("server.restore_ms", "ms"),
		},
		Run: runServerCheckpoint,
	})
}

// runServerCheckpoint takes warm-failover checkpoints of a trained,
// idle server — the barrier every shard worker waits behind — and
// restores the last one into a cold replica.
func runServerCheckpoint(c *Capture, env Env) ([]float64, error) {
	srv, _, err := c.trainedServer(server.Config{Shards: 2})
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	var ms []float64
	for i := 0; i < env.Iters(20)+1; i++ {
		snap.Reset()
		t0 := time.Now()
		if err := srv.Checkpoint(&snap); err != nil {
			_ = srv.Close() // the checkpoint error is the one to report
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}

	replica, err := c.newServerUnstarted(control.Config{TrainAtS: c.trainAtS()}, server.Config{Shards: 2})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := replica.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		return nil, err
	}
	restoreMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	return []float64{stats.Median(ms), float64(snap.Len()), restoreMs}, nil
}
