package cloudsim

import (
	"fmt"
	"sort"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// Substrate adapts a simulated Cluster to the neutral substrate
// contract: it derives the 13 monitored attributes from simulator state
// (the out-of-band domain-0 view), integrates the per-VM load-average
// EMAs, and forwards actuations to the cluster. The control loop only
// ever sees this adapter, never the simulator itself.
type Substrate struct {
	cluster *Cluster
	vmIDs   []VMID

	load1 map[VMID]float64
	load5 map[VMID]float64
}

var _ substrate.Substrate = (*Substrate)(nil)

// NewSubstrate wraps the cluster for the given managed VMs. Every VM
// must already be placed on the cluster.
func NewSubstrate(cluster *Cluster, vmIDs []VMID) (*Substrate, error) {
	if cluster == nil {
		return nil, fmt.Errorf("cloudsim: cluster is required")
	}
	if len(vmIDs) == 0 {
		return nil, fmt.Errorf("cloudsim: at least one VM is required")
	}
	ids := make([]VMID, len(vmIDs))
	copy(ids, vmIDs)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if _, err := cluster.VM(id); err != nil {
			return nil, err
		}
	}
	return &Substrate{
		cluster: cluster,
		vmIDs:   ids,
		load1:   make(map[VMID]float64, len(ids)),
		load5:   make(map[VMID]float64, len(ids)),
	}, nil
}

// Cluster returns the underlying simulated cluster.
func (s *Substrate) Cluster() *Cluster { return s.cluster }

// VMs lists the managed VMs in canonical sorted order.
func (s *Substrate) VMs() []VMID {
	out := make([]VMID, len(s.vmIDs))
	copy(out, s.vmIDs)
	return out
}

// Allocation returns the VM's current resource caps.
func (s *Substrate) Allocation(id VMID) (substrate.Allocation, error) {
	vm, err := s.cluster.VM(id)
	if err != nil {
		return substrate.Allocation{}, err
	}
	return substrate.Allocation{CPUPct: vm.CPUAllocation, MemMB: vm.MemAllocationMB}, nil
}

// Migrating reports whether a live migration of the VM is in flight.
func (s *Substrate) Migrating(id VMID) (bool, error) {
	vm, err := s.cluster.VM(id)
	if err != nil {
		return false, err
	}
	return vm.Migrating(), nil
}

// ScaleCPU sets the VM's CPU allocation cap.
func (s *Substrate) ScaleCPU(now simclock.Time, id VMID, newCPUPct float64) error {
	return s.cluster.ScaleCPU(now, id, newCPUPct)
}

// ScaleMem sets the VM's memory allocation.
func (s *Substrate) ScaleMem(now simclock.Time, id VMID, newMemMB float64) error {
	return s.cluster.ScaleMem(now, id, newMemMB)
}

// Migrate starts a live migration of the VM.
func (s *Substrate) Migrate(now simclock.Time, id VMID, desiredCPUPct, desiredMemMB float64) error {
	return s.cluster.Migrate(now, id, desiredCPUPct, desiredMemMB)
}

// MigrationSeconds returns the simulated live-migration duration.
func (s *Substrate) MigrationSeconds(memMB float64) int64 {
	return MigrationSeconds(memMB)
}

// Advance integrates the per-VM load-average EMAs; call once per
// simulated second (load averages integrate faster than the sampling
// interval).
func (s *Substrate) Advance(simclock.Time) {
	const (
		alpha1 = 0.28 // ~1-minute EMA at 1 s ticks, compressed timescale
		alpha5 = 0.08
	)
	for _, id := range s.vmIDs {
		vm, err := s.cluster.VM(id)
		if err != nil {
			continue
		}
		inst := 0.0
		if vm.CPUAllocation > 0 {
			inst = vm.CPUDemand / vm.CPUAllocation
		}
		s.load1[id] = alpha1*inst + (1-alpha1)*s.load1[id]
		s.load5[id] = alpha5*inst + (1-alpha5)*s.load5[id]
	}
}

// Sample derives the VM's 13 noise-free attributes from simulator state.
func (s *Substrate) Sample(id VMID) (metrics.Vector, error) {
	vm, err := s.cluster.VM(id)
	if err != nil {
		return metrics.Vector{}, err
	}
	util := 0.0
	if vm.CPUAllocation > 0 {
		util = 100 * vm.CPUUsage / vm.CPUAllocation
	}
	pressure := vm.MemPressure()

	var v metrics.Vector
	v.Set(metrics.CPUTotal, util)
	v.Set(metrics.CPUUser, util*0.72)
	v.Set(metrics.CPUSystem, util*0.28)
	v.Set(metrics.FreeMem, vm.FreeMemMB())
	v.Set(metrics.MemUsed, vm.WorkingSetMB+vm.LeakedMB)
	v.Set(metrics.NetIn, vm.NetInKBps)
	v.Set(metrics.NetOut, vm.NetOutKBps)
	v.Set(metrics.DiskRead, vm.DiskReadKBps)
	v.Set(metrics.DiskWrite, vm.DiskWriteKBs)
	v.Set(metrics.Load1, s.load1[id])
	v.Set(metrics.Load5, s.load5[id])
	v.Set(metrics.CtxSwitch, 400+35*vm.CPUUsage)
	v.Set(metrics.PageFaults, 40+450*(pressure-1))
	return v, nil
}
