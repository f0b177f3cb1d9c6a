// Package cloudsim simulates a small virtualized (Xen-like) cloud: hosts
// with fixed CPU and memory capacity, VMs with elastic resource
// allocations, out-of-band resource accounting (the simulated analogue of
// domain-0 libxenstat monitoring), elastic CPU/memory scaling, and live
// VM migration with realistic latency.
//
// The paper's testbed is NCSU's Virtual Computing Lab: dual-core Xeon
// 3.00 GHz hosts with 4 GB memory running Xen 3.0.3. Each simulated host
// defaults to the same shape (200% CPU, 4096 MB). Action latencies follow
// the paper's Table I: CPU scaling ~107 ms, memory scaling ~116 ms, and
// live migration ~8.56 s for a 512 MB VM (scaling with memory size).
package cloudsim

import (
	"fmt"
	"math"
	"sort"

	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// HostID identifies a physical host. It is the neutral substrate
// identifier: IDs flow unchanged between the simulator and the
// substrate-agnostic control loop.
type HostID = substrate.HostID

// VMID identifies a virtual machine (neutral substrate identifier).
type VMID = substrate.VMID

// Default host shape, mirroring the VCL hosts in the paper.
const (
	// DefaultHostCPU is the host CPU capacity in percentage points
	// (200 = two cores).
	DefaultHostCPU = 200.0
	// DefaultHostMemMB is the host memory capacity in MB.
	DefaultHostMemMB = 4096.0
)

// Actuation latencies measured in the paper (Table I). Scaling completes
// within the tick it is issued (sub-second); migration takes whole
// simulated seconds.
const (
	// CPUScalingLatencyMS is the simulated CPU-scaling actuation cost.
	CPUScalingLatencyMS = 107.0
	// MemScalingLatencyMS is the simulated memory-scaling actuation cost.
	MemScalingLatencyMS = 116.0
	// migrationBaseSeconds + memMB/migrationMBPerSecond gives the live
	// migration duration; 512 MB ≈ 8.56 s as in Table I.
	migrationBaseSeconds  = 7.0
	migrationMBPerSecond  = 330.0
	migrationSlowdownFrac = 0.75 // fraction of CPU available mid-migration
)

// Errors reported by cluster operations. They are the substrate-level
// sentinels, so the control loop's fallback logic works identically
// against the simulator and any other backend.
var (
	ErrNoSuchVM         = substrate.ErrNoSuchVM
	ErrNoSuchHost       = substrate.ErrNoSuchHost
	ErrInsufficient     = substrate.ErrInsufficient
	ErrMigrating        = substrate.ErrMigrating
	ErrNoEligibleTarget = substrate.ErrNoEligibleTarget
)

// Host is a simulated physical machine.
type Host struct {
	ID       HostID
	CPUCap   float64 // percentage points, 100 per core
	MemCapMB float64

	vms map[VMID]*VM
	// reserved tracks resources earmarked for inbound migrations that
	// have not completed yet.
	reservedCPU float64
	reservedMem float64
}

// VMs returns the VMs currently placed on the host, sorted by ID.
func (h *Host) VMs() []*VM {
	out := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AllocatedCPU returns the total CPU percentage allocated to VMs on the
// host, including inbound migration reservations.
func (h *Host) AllocatedCPU() float64 {
	total := h.reservedCPU
	for _, vm := range h.vms {
		total += vm.CPUAllocation
	}
	return total
}

// AllocatedMemMB returns total memory allocated, including reservations.
func (h *Host) AllocatedMemMB() float64 {
	total := h.reservedMem
	for _, vm := range h.vms {
		total += vm.MemAllocationMB
	}
	return total
}

// FreeCPU returns unallocated CPU percentage points.
func (h *Host) FreeCPU() float64 { return h.CPUCap - h.AllocatedCPU() }

// FreeMemMB returns unallocated memory in MB.
func (h *Host) FreeMemMB() float64 { return h.MemCapMB - h.AllocatedMemMB() }

// VM is a simulated virtual machine. Application simulators write the
// demand/usage fields each tick; fault injectors perturb ExternalCPU and
// LeakedMB; the monitor reads everything out-of-band.
type VM struct {
	ID   VMID
	host *Host

	// Allocations are the hypervisor-enforced caps, adjusted by the
	// scaling and migration actuators.
	CPUAllocation   float64 // percentage points
	MemAllocationMB float64

	// Demand and usage, written by the application model each tick.
	CPUDemand    float64 // what the app wants this tick
	CPUUsage     float64 // what it actually consumed (incl. external hog)
	WorkingSetMB float64 // application resident memory
	NetInKBps    float64
	NetOutKBps   float64
	DiskReadKBps float64
	DiskWriteKBs float64

	// Fault state, written by the injectors.
	ExternalCPU float64 // CPU consumed by a co-located hog process
	LeakedMB    float64 // memory lost to a leaking process

	// Migration state.
	migratingUntil simclock.Time
	migrating      bool
	migrateTarget  *Host
	migrateCPU     float64 // desired allocation on arrival
	migrateMem     float64

	// swapDebtMB models pages swapped out while the VM was under memory
	// pressure; it drains over time once pressure is relieved, so
	// recovery from thrashing is not instantaneous (the cost a reactive
	// scheme pays and a predictive one avoids).
	swapDebtMB float64
}

// Host returns the host currently running the VM.
func (vm *VM) Host() *Host { return vm.host }

// Migrating reports whether a live migration of the VM is in flight.
func (vm *VM) Migrating() bool { return vm.migrating }

// UsableCPU returns the CPU available to the application this tick:
// the allocation, reduced by live-migration overhead while a migration is
// in flight, minus whatever an external hog process consumes.
func (vm *VM) UsableCPU() float64 {
	cap := vm.CPUAllocation
	if vm.migrating {
		cap *= migrationSlowdownFrac
	}
	usable := cap - vm.ExternalCPU
	if usable < 0 {
		usable = 0
	}
	return usable
}

// FreeMemMB returns guest-visible free memory: allocation minus the
// application working set and any leaked memory.
func (vm *VM) FreeMemMB() float64 {
	free := vm.MemAllocationMB - vm.WorkingSetMB - vm.LeakedMB
	if free < 0 {
		free = 0
	}
	return free
}

// memPressureRaw is the instantaneous paging slowdown: it begins when
// free memory drops below 35% of the allocation and grows smoothly to 8x
// at zero free memory. The gradual onset is what turns a memory leak
// into slow drift across many system metrics well before the SLO breaks
// — the signal PREPARE's value predictors extrapolate for early alarms.
func (vm *VM) memPressureRaw() float64 {
	threshold := 0.35 * vm.MemAllocationMB
	if threshold <= 0 {
		return 1
	}
	free := vm.FreeMemMB()
	if free >= threshold {
		return 1
	}
	frac := (threshold - free) / threshold // 0..1
	return 1 + 7*math.Pow(frac, 1.5)
}

// MemPressure returns the effective slowdown multiplier (>= 1): the
// instantaneous paging pressure plus the residual cost of swap debt
// accumulated during past thrashing. Even after memory is scaled up, the
// application pays to page its working set back in for a while.
func (vm *VM) MemPressure() float64 {
	return vm.memPressureRaw() + 0.02*vm.swapDebtMB
}

// SwapDebtMB returns the current swap debt (for diagnostics and tests).
func (vm *VM) SwapDebtMB() float64 { return vm.swapDebtMB }

// tickSwapDebt advances the swap-debt state by one second.
func (vm *VM) tickSwapDebt() {
	const (
		accrualPerPressure = 5.0 // MB of debt per second per unit of excess pressure
		drainPerSecond     = 3.0
		debtCapMB          = 150
		// Debt accrues only under real thrashing; borderline paging must
		// not ratchet a VM into a permanent slowdown.
		thrashThreshold = 1.25
	)
	if raw := vm.memPressureRaw(); raw > thrashThreshold {
		vm.swapDebtMB += accrualPerPressure * (raw - 1)
		if vm.swapDebtMB > debtCapMB {
			vm.swapDebtMB = debtCapMB
		}
		return
	}
	vm.swapDebtMB -= drainPerSecond
	if vm.swapDebtMB < 0 {
		vm.swapDebtMB = 0
	}
}

// ActionKind distinguishes the cluster actuations for logging and cost
// accounting (neutral substrate type).
type ActionKind = substrate.ActionKind

// The actuator kinds.
const (
	ActionScaleCPU = substrate.ActionScaleCPU
	ActionScaleMem = substrate.ActionScaleMem
	ActionMigrate  = substrate.ActionMigrate
)

// Action records one actuation for the experiment logs.
type Action struct {
	Time      simclock.Time
	Kind      ActionKind
	VM        VMID
	Detail    string
	CostMS    float64 // actuation CPU cost, per Table I
	DurationS int64   // how long until the action takes effect
}

// Cluster owns the hosts and VMs and exposes the actuation API used by
// the prevention module.
type Cluster struct {
	hosts   map[HostID]*Host
	vms     map[VMID]*VM
	actions []Action
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{
		hosts: make(map[HostID]*Host),
		vms:   make(map[VMID]*VM),
	}
}

// AddHost registers a host with the given capacities. Duplicate IDs are
// rejected.
func (c *Cluster) AddHost(id HostID, cpuCap, memCapMB float64) (*Host, error) {
	if _, ok := c.hosts[id]; ok {
		return nil, fmt.Errorf("cloudsim: duplicate host %q", id)
	}
	if cpuCap <= 0 || memCapMB <= 0 {
		return nil, fmt.Errorf("cloudsim: host %q capacities must be positive", id)
	}
	h := &Host{ID: id, CPUCap: cpuCap, MemCapMB: memCapMB, vms: make(map[VMID]*VM)}
	c.hosts[id] = h
	return h, nil
}

// AddDefaultHost registers a host with the paper's VCL shape.
func (c *Cluster) AddDefaultHost(id HostID) (*Host, error) {
	return c.AddHost(id, DefaultHostCPU, DefaultHostMemMB)
}

// PlaceVM creates a VM on the host with the given initial allocations.
func (c *Cluster) PlaceVM(id VMID, hostID HostID, cpu, memMB float64) (*VM, error) {
	if _, ok := c.vms[id]; ok {
		return nil, fmt.Errorf("cloudsim: duplicate VM %q", id)
	}
	h, ok := c.hosts[hostID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchHost, hostID)
	}
	if cpu <= 0 || memMB <= 0 {
		return nil, fmt.Errorf("cloudsim: VM %q allocations must be positive", id)
	}
	if h.FreeCPU() < cpu || h.FreeMemMB() < memMB {
		return nil, fmt.Errorf("%w: placing %q on %q", ErrInsufficient, id, hostID)
	}
	vm := &VM{ID: id, host: h, CPUAllocation: cpu, MemAllocationMB: memMB}
	h.vms[id] = vm
	c.vms[id] = vm
	return vm, nil
}

// VM looks a VM up by ID.
func (c *Cluster) VM(id VMID) (*VM, error) {
	vm, ok := c.vms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVM, id)
	}
	return vm, nil
}

// Host looks a host up by ID.
func (c *Cluster) Host(id HostID) (*Host, error) {
	h, ok := c.hosts[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchHost, id)
	}
	return h, nil
}

// VMs returns all VMs sorted by ID.
func (c *Cluster) VMs() []*VM {
	out := make([]*VM, 0, len(c.vms))
	for _, vm := range c.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Hosts returns all hosts sorted by ID.
func (c *Cluster) Hosts() []*Host {
	out := make([]*Host, 0, len(c.hosts))
	for _, h := range c.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Actions returns a copy of the actuation log.
func (c *Cluster) Actions() []Action {
	out := make([]Action, len(c.actions))
	copy(out, c.actions)
	return out
}

// ScaleCPU sets the VM's CPU allocation cap. It fails when the host
// cannot fit the increase; the caller then falls back to migration, as in
// the paper's actuation policy.
func (c *Cluster) ScaleCPU(now simclock.Time, id VMID, newAlloc float64) error {
	vm, err := c.VM(id)
	if err != nil {
		return err
	}
	if vm.migrating {
		return fmt.Errorf("%w: %q", ErrMigrating, id)
	}
	if newAlloc <= 0 {
		return fmt.Errorf("cloudsim: CPU allocation %g must be positive", newAlloc)
	}
	delta := newAlloc - vm.CPUAllocation
	if delta > 0 && vm.host.FreeCPU() < delta {
		return fmt.Errorf("%w: scale cpu of %q to %g (free %g)",
			ErrInsufficient, id, newAlloc, vm.host.FreeCPU())
	}
	vm.CPUAllocation = newAlloc
	c.actions = append(c.actions, Action{
		Time: now, Kind: ActionScaleCPU, VM: id,
		Detail: fmt.Sprintf("cpu->%.0f%%", newAlloc),
		CostMS: CPUScalingLatencyMS,
	})
	return nil
}

// ScaleMem sets the VM's memory allocation (Xen balloon-style).
func (c *Cluster) ScaleMem(now simclock.Time, id VMID, newAllocMB float64) error {
	vm, err := c.VM(id)
	if err != nil {
		return err
	}
	if vm.migrating {
		return fmt.Errorf("%w: %q", ErrMigrating, id)
	}
	if newAllocMB <= 0 {
		return fmt.Errorf("cloudsim: memory allocation %g must be positive", newAllocMB)
	}
	delta := newAllocMB - vm.MemAllocationMB
	if delta > 0 && vm.host.FreeMemMB() < delta {
		return fmt.Errorf("%w: scale mem of %q to %g (free %g)",
			ErrInsufficient, id, newAllocMB, vm.host.FreeMemMB())
	}
	vm.MemAllocationMB = newAllocMB
	c.actions = append(c.actions, Action{
		Time: now, Kind: ActionScaleMem, VM: id,
		Detail: fmt.Sprintf("mem->%.0fMB", newAllocMB),
		CostMS: MemScalingLatencyMS,
	})
	return nil
}

// MigrationSeconds returns the simulated live-migration duration for a VM
// with the given memory allocation.
func MigrationSeconds(memMB float64) int64 {
	d := migrationBaseSeconds + memMB/migrationMBPerSecond
	return int64(d + 0.5)
}

// Migrate starts a live migration of the VM to a host that can fit the
// desired post-migration allocations, preferring the emptiest eligible
// host (the "host with matching resources" of the paper). The VM keeps
// running with reduced capacity until the migration completes.
func (c *Cluster) Migrate(now simclock.Time, id VMID, desiredCPU, desiredMemMB float64) error {
	vm, err := c.VM(id)
	if err != nil {
		return err
	}
	if vm.migrating {
		return fmt.Errorf("%w: %q", ErrMigrating, id)
	}
	if desiredCPU < vm.CPUAllocation {
		desiredCPU = vm.CPUAllocation
	}
	if desiredMemMB < vm.MemAllocationMB {
		desiredMemMB = vm.MemAllocationMB
	}
	target := c.findTarget(vm, desiredCPU, desiredMemMB)
	if target == nil {
		return fmt.Errorf("%w: migrate %q (cpu %.0f mem %.0f)",
			ErrNoEligibleTarget, id, desiredCPU, desiredMemMB)
	}
	dur := MigrationSeconds(vm.MemAllocationMB)
	target.reservedCPU += desiredCPU
	target.reservedMem += desiredMemMB
	vm.migrating = true
	vm.migratingUntil = now.Add(dur)
	vm.migrateTarget = target
	vm.migrateCPU = desiredCPU
	vm.migrateMem = desiredMemMB
	c.actions = append(c.actions, Action{
		Time: now, Kind: ActionMigrate, VM: vm.ID,
		Detail:    fmt.Sprintf("%s->%s", vm.host.ID, target.ID),
		CostMS:    float64(dur) * 1000,
		DurationS: dur,
	})
	return nil
}

// findTarget picks the eligible host with the most free CPU, excluding
// the VM's current host.
func (c *Cluster) findTarget(vm *VM, cpu, memMB float64) *Host {
	var best *Host
	for _, h := range c.Hosts() {
		if h == vm.host {
			continue
		}
		if h.FreeCPU() >= cpu && h.FreeMemMB() >= memMB {
			if best == nil || h.FreeCPU() > best.FreeCPU() {
				best = h
			}
		}
	}
	return best
}

// Tick advances cluster-side state (migration completions, swap-debt
// dynamics). Call once per simulated second after the applications have
// updated their demands.
func (c *Cluster) Tick(now simclock.Time) {
	for _, vm := range c.VMs() {
		if vm.migrating && !now.Before(vm.migratingUntil) {
			c.completeMigration(vm)
		}
		vm.tickSwapDebt()
	}
}

func (c *Cluster) completeMigration(vm *VM) {
	delete(vm.host.vms, vm.ID)
	dst := vm.migrateTarget
	dst.reservedCPU -= vm.migrateCPU
	dst.reservedMem -= vm.migrateMem
	vm.host = dst
	dst.vms[vm.ID] = vm
	vm.CPUAllocation = vm.migrateCPU
	vm.MemAllocationMB = vm.migrateMem
	vm.migrating = false
	vm.migrateTarget = nil
}
