package probes

import (
	"prepare/benchmark/stats"
	"prepare/internal/server"
)

func init() {
	register(Probe{
		Name: "server_flood",
		Metrics: []Metric{
			lower("server.ingest_call_us_p50", "us"),
			lower("server.ingest_call_us_p99", "us"),
			lower("server.backpressure_retries", "count"),
			lower("server.drain_ms", "ms"),
			higher("server.ticks_per_s", "1/s"),
			lower("server.allocs_per_sample", "count"),
		},
		Run: runServerFlood,
	})
}

// runServerFlood floods an untrained two-shard server with the capture,
// repeated until the send takes a measurable time, through IngestFrame:
// decode, queue, apply, watermark and the untrained tick.
func runServerFlood(c *Capture, env Env) ([]float64, error) {
	frames, err := c.floodFrames(env.Iters(40))
	if err != nil {
		return nil, err
	}
	srv, err := c.newServer(untrained(), server.Config{Shards: 2})
	if err != nil {
		return nil, err
	}
	m0 := mallocs()
	res, err := flood(srv, frames)
	if err != nil {
		return nil, err
	}
	allocs := float64(mallocs()-m0) / float64(res.stats.SamplesApplied)
	calls := stats.Sorted(res.callUs)
	return []float64{
		stats.Quantile(calls, 0.5),
		stats.Quantile(calls, 0.99),
		float64(res.retries),
		(res.totalS - res.sendS) * 1e3,
		float64(res.stats.Ticks) / res.totalS,
		allocs,
	}, nil
}
