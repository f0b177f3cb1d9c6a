package probes

import (
	"time"

	"prepare/internal/apps/rubis"
	"prepare/internal/cloudsim"
)

func init() {
	register(Probe{
		Name:    "apps",
		Metrics: []Metric{lower("apps.tick_ns", "ns")},
		Run:     runApps,
	})
}

// runApps ticks the RUBiS application model on its own four-host
// cluster for as many simulated seconds as a paper scenario lasts, and
// times the application's share of each second (the queueing model of
// the four tiers), not the cluster's.
func runApps(c *Capture, env Env) ([]float64, error) {
	cluster := cloudsim.NewCluster()
	hosts := []cloudsim.HostID{"h0", "h1", "h2", "h3"}
	for _, h := range hosts {
		if _, err := cluster.AddDefaultHost(h); err != nil {
			return nil, err
		}
	}
	app, err := rubis.New(cluster, rubis.Config{HostIDs: hosts})
	if err != nil {
		return nil, err
	}
	seconds := env.Iters(20) * 1500
	var ticking time.Duration
	for s := 1; s <= seconds; s++ {
		now := simSecond(int64(s))
		t0 := time.Now()
		app.Tick(now)
		ticking += time.Since(t0)
		cluster.Tick(now)
	}
	sink += app.SLOMetric()
	return []float64{float64(ticking.Nanoseconds()) / float64(seconds)}, nil
}
