package probes

import (
	"encoding/json"
	"errors"
	"time"

	"prepare/benchmark/world"
	"prepare/internal/server"
)

func init() {
	register(Probe{
		Name:    "server_json",
		Metrics: []Metric{lower("server.json_ingest_us_per_sample", "us")},
		Run:     runServerJSON,
	})
}

// runServerJSON sends the capture as JSON request bodies, one tenant
// batch each, through IngestJSON — the decode and validate path the
// HTTP handler runs for clients that do not speak the binary wire.
func runServerJSON(c *Capture, env Env) ([]float64, error) {
	to := c.Ticks
	if env.Smoke {
		to = c.TrainTicks
	}
	bodies := make([][]byte, 0, to*CaptureGroups)
	for k := 0; k < to; k++ {
		for g := 0; g < CaptureGroups; g++ {
			b := server.Batch{Tenant: world.GroupName(g)}
			for i := g * CaptureGroupSize; i < (g+1)*CaptureGroupSize; i++ {
				b.Samples = append(b.Samples, server.SampleIn{
					VM: c.VMs[i], TimeS: SimTime(k).Seconds(), Label: c.Label(k, i).String(), Values: c.Row(k, i)[:],
				})
			}
			body, err := json.Marshal(struct {
				Batches []server.Batch `json:"batches"`
			}{[]server.Batch{b}})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
	}
	srv, err := c.newServer(untrained(), server.Config{Shards: 2})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, body := range bodies {
		for {
			_, err := srv.IngestJSON(body)
			if err == nil {
				break
			}
			if !errors.Is(err, server.ErrBackpressure) {
				_ = srv.Close() // the ingest error is the one to report
				return nil, err
			}
			time.Sleep(RetrySleep)
		}
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	return []float64{us / float64(len(bodies)*CaptureGroupSize)}, nil
}
