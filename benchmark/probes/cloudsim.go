package probes

import (
	"fmt"
	"time"

	"prepare/internal/cloudsim"
	"prepare/internal/metrics"
)

func init() {
	register(Probe{
		Name:    "cloudsim",
		Metrics: []Metric{lower("cloudsim.tick_ns_per_vm", "ns")},
		Run:     runCloudsim,
	})
}

// runCloudsim places the captured VMs two to a host and ticks the
// simulated cluster once per captured instant, with every VM's CPU
// demand and working set set from its captured row: the simulator's
// resource arbitration without any application model on top.
func runCloudsim(c *Capture, env Env) ([]float64, error) {
	cluster := cloudsim.NewCluster()
	vms := make([]*cloudsim.VM, len(c.VMs))
	for i, name := range c.VMs {
		host := cloudsim.HostID(fmt.Sprintf("h%02d", i/2))
		if i%2 == 0 {
			if _, err := cluster.AddDefaultHost(host); err != nil {
				return nil, err
			}
		}
		vm, err := cluster.PlaceVM(cloudsim.VMID(name), host, 60, 512)
		if err != nil {
			return nil, err
		}
		vms[i] = vm
	}
	var ticking time.Duration
	ticks := 0
	for rep := 0; rep < env.Iters(20)+1; rep++ {
		for k := 0; k < c.Ticks; k++ {
			for i, vm := range vms {
				row := c.Row(k, i)
				vm.CPUDemand = row.Get(metrics.CPUTotal)
				vm.WorkingSetMB = row.Get(metrics.MemUsed)
			}
			ticks++
			t0 := time.Now()
			cluster.Tick(simSecond(int64(ticks)))
			ticking += time.Since(t0)
		}
	}
	return []float64{float64(ticking.Nanoseconds()) / float64(ticks*len(vms))}, nil
}
