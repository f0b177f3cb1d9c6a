package probes

import (
	"prepare/internal/wire"
)

func init() {
	register(Probe{
		Name: "wire",
		Metrics: []Metric{
			lower("wire.encode_ns_per_sample", "ns"),
			lower("wire.decode_ns_per_sample", "ns"),
			lower("wire.decode_allocs_per_frame", "count"),
			lower("wire.frame_bytes_per_sample", "B"),
		},
		Run: runWire,
	})
}

// runWire encodes and decodes every captured instant as one frame per
// tenant group through one reused batch, buffer and arena: the
// steady-state cost a client and the server's ingest goroutine pay.
func runWire(c *Capture, env Env) ([]float64, error) {
	frames, err := c.Frames(0, c.Ticks, 0)
	if err != nil {
		return nil, err
	}
	samples := float64(c.Ticks * len(c.VMs))
	var bytes int
	for _, f := range frames {
		bytes += len(f)
	}

	var encErr error
	encode := timeIt(env.Iters(40), func() {
		if err := c.eachFrame(0, c.Ticks, 0, func(f []byte) { sink += float64(len(f)) }); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return nil, encErr
	}

	var arena wire.Arena
	var decErr error
	pass := func() {
		for _, f := range frames {
			payload, err := wire.Payload(f)
			if err == nil {
				var b *wire.Batch
				b, err = wire.DecodeBatch(payload, &arena)
				if err == nil {
					sink += float64(b.Rows())
				}
			}
			if err != nil {
				decErr = err
			}
		}
	}
	pass() // size the arena
	decode := timeIt(env.Iters(40), pass)
	m0 := mallocs()
	pass()
	allocs := float64(mallocs()-m0) / float64(len(frames))
	if decErr != nil {
		return nil, decErr
	}
	return []float64{encode / samples, decode / samples, allocs, float64(bytes) / samples}, nil
}
