package probes

import (
	"bytes"
	"fmt"
	"time"

	"prepare/internal/server"
)

func init() {
	register(Probe{
		Name:    "server_stream",
		Metrics: []Metric{lower("server.stream_ingest_ns_per_sample", "ns")},
		Run:     runServerStream,
	})
}

// runServerStream feeds the capture's frames back to back down one
// IngestStream connection. The stream is open loop — a refused frame is
// dropped, not resent — so the queues are made deep enough to hold
// everything and the probe measures framing, decode and apply, never
// loss.
func runServerStream(c *Capture, env Env) ([]float64, error) {
	frames, err := c.floodFrames(env.Iters(40))
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	for _, f := range frames {
		body.Write(f)
	}
	srv, err := c.newServer(untrained(), server.Config{Shards: 2, QueueDepth: len(frames)})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := srv.IngestStream(&body)
	if err != nil {
		_ = srv.Close() // the stream error is the one to report
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	ns := float64(time.Since(start).Nanoseconds())
	if res.Rejected != 0 || res.Frames != len(frames) {
		return nil, fmt.Errorf("stream took %d of %d frames and rejected %d samples", res.Frames, len(frames), res.Rejected)
	}
	return []float64{ns / float64(res.Accepted)}, nil
}
