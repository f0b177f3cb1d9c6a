package probes

import (
	"fmt"
	"math/rand"

	"prepare/internal/metrics"
	"prepare/internal/placement"
)

func init() {
	register(Probe{
		Name: "placement",
		Metrics: []Metric{
			lower("placement.set_forecast_ns", "ns"),
			lower("placement.decide_us_1k_hosts", "us"),
		},
		Run: runPlacement,
	})
}

// placementHosts and placementVMsPerHost size the inventory.
const (
	placementHosts      = 1000
	placementVMsPerHost = 5
)

// runPlacement builds a 1000-host, 5000-VM inventory whose VM loads are
// the capture's CPU readings, then times the two calls the control loop
// makes into the placement engine: the per-VM forecast refresh of every
// tick, and one migration-target decision.
func runPlacement(c *Capture, env Env) ([]float64, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	inv := placement.NewInventory()
	for h := 0; h < placementHosts; h++ {
		if err := inv.AddHost(placement.HostState{
			ID: placement.HostID(fmt.Sprintf("h%04d", h)), Domain: fmt.Sprintf("rack%02d", h%16),
			CPUCapPct: float64(200 + 100*rng.Intn(3)), MemCapMB: float64(4096 + 2048*rng.Intn(3)),
		}); err != nil {
			return nil, err
		}
	}
	cpuAt := func(n int) float64 {
		return c.Row(n/len(c.VMs)%c.Ticks, n%len(c.VMs)).Get(metrics.CPUTotal) / 2
	}
	vms := make([]placement.VMID, 0, placementHosts*placementVMsPerHost)
	for n := 0; n < cap(vms); n++ {
		id := placement.VMID(fmt.Sprintf("v%05d", n))
		host := placement.HostID(fmt.Sprintf("h%04d", n/placementVMsPerHost))
		if err := inv.Place(id, host, 5+cpuAt(n), float64(256+128*rng.Intn(6)), fmt.Sprintf("app%d", n%32)); err != nil {
			return nil, err
		}
		vms = append(vms, id)
	}

	var fcErr error
	forecast := timeIt(env.Iters(40), func() {
		for n, id := range vms {
			if err := inv.SetForecast(id, cpuAt(n+1)); err != nil {
				fcErr = err
			}
		}
	})
	if fcErr != nil {
		return nil, fcErr
	}

	eng, err := placement.NewEngine(inv, placement.Config{MaxGroupPerDomain: 8})
	if err != nil {
		return nil, err
	}
	reqs := make([]placement.Request, 64)
	for i := range reqs {
		reqs[i] = placement.Request{
			VM: placement.VMID(fmt.Sprintf("inc%02d", i)), Group: fmt.Sprintf("app%d", i%32),
			CPUPct: 20 + float64(rng.Intn(100)), MemMB: float64(256 + 128*rng.Intn(8)),
			Source: placement.HostID(fmt.Sprintf("h%04d", rng.Intn(placementHosts))),
		}
	}
	var decErr error
	decide := timeIt(env.Iters(40), func() {
		for _, r := range reqs {
			if _, err := eng.Decide(r); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	return []float64{forecast / float64(len(vms)), decide / float64(len(reqs)) / 1e3}, nil
}
