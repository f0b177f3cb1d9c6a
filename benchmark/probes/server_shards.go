package probes

import "prepare/internal/server"

func init() {
	register(Probe{
		Name:    "server_shards",
		Metrics: []Metric{higher("server.shard_speedup_x", "x")},
		Run:     runServerShards,
	})
}

// runServerShards floods the same frames into a one-shard and a
// two-shard server, on two processors: the single-threaded run is the
// baseline the sharded pipeline has to beat.
func runServerShards(c *Capture, env Env) ([]float64, error) {
	frames, err := c.floodFrames(env.Iters(40))
	if err != nil {
		return nil, err
	}
	seconds := func(shards int) (float64, error) {
		srv, err := c.newServer(untrained(), server.Config{Shards: shards})
		if err != nil {
			return 0, err
		}
		res, err := flood(srv, frames)
		return res.totalS, err
	}
	var one, two float64
	err = withTwoProcs(func() error {
		if one, err = seconds(1); err != nil {
			return err
		}
		two, err = seconds(2)
		return err
	})
	if err != nil {
		return nil, err
	}
	return []float64{one / two}, nil
}
