// Package substrate defines the neutral contract between PREPARE's
// management loop and the infrastructure it manages. The paper's
// architecture (Fig. 1) consumes only per-VM metric samples and emits
// scaling/migration commands, so the control loop never needs to know
// whether those samples come from an in-process simulator, a replayed
// trace, or a live hypervisor fleet.
//
// The contract is split along the three arrows of the closed loop:
//
//   - MetricSource: per-VM raw metric vectors, advanced once per second
//     (the monitoring arrow into the loop).
//   - Inventory: which VMs exist, their current allocations, and their
//     migration state (the bookkeeping the planner consults).
//   - Actuator: elastic CPU/memory scaling and live migration (the
//     prevention arrow out of the loop).
//
// Substrate is the union the control loop is built against; cloudsim's
// adapter and the trace-replay substrate are the two in-tree
// implementations.
package substrate

import (
	"errors"
	"fmt"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

// HostID identifies a physical host.
type HostID string

// VMID identifies a virtual machine.
type VMID string

// Allocation is a VM's hypervisor-enforced resource caps.
type Allocation struct {
	// CPUPct is the CPU allocation in percentage points (100 per core).
	CPUPct float64
	// MemMB is the memory allocation in MB.
	MemMB float64
}

// ActionKind distinguishes the actuations for logging and cost
// accounting.
type ActionKind int

// The actuator kinds.
const (
	ActionScaleCPU ActionKind = iota + 1
	ActionScaleMem
	ActionMigrate
)

// String returns the action name.
func (k ActionKind) String() string {
	switch k {
	case ActionScaleCPU:
		return "scale_cpu"
	case ActionScaleMem:
		return "scale_mem"
	case ActionMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// Sentinel errors every substrate implementation reports, so the
// control loop's fallback logic (scaling → migration, migration →
// exhausted) works identically against any backend.
var (
	// ErrNoSuchVM means the VM is not part of the substrate.
	ErrNoSuchVM = errors.New("substrate: no such VM")
	// ErrNoSuchHost means the host is not part of the substrate.
	ErrNoSuchHost = errors.New("substrate: no such host")
	// ErrInsufficient means the local host cannot fit the requested
	// allocation; the planner falls back to migration.
	ErrInsufficient = errors.New("substrate: insufficient resources on host")
	// ErrMigrating means the VM already has a live migration in flight.
	ErrMigrating = errors.New("substrate: VM is migrating")
	// ErrNoEligibleTarget means no host can fit the requested resources;
	// the planner reports its options as exhausted.
	ErrNoEligibleTarget = errors.New("substrate: no host can fit the requested resources")
	// ErrUnavailable is the transient sentinel: the substrate could not
	// serve the request right now (dropped metric sample, hypervisor API
	// timeout, control-plane hiccup) but the same call may succeed if
	// retried. The monitor carries the last known value forward over it
	// and the prevention planner retries with backoff instead of falling
	// through to the next option.
	ErrUnavailable = errors.New("substrate: temporarily unavailable")
)

// IsTransient reports whether the error is a retryable substrate
// condition: the operation failed for reasons that may clear on their
// own (ErrUnavailable, or an in-flight migration blocking actuation),
// as opposed to a permanent answer such as ErrInsufficient or
// ErrNoEligibleTarget that the caller must plan around.
func IsTransient(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrMigrating)
}

// MetricSource provides noise-free per-VM metric vectors. The monitor
// layers measurement noise, labeling, and series bookkeeping on top.
type MetricSource interface {
	// Advance moves the source's internal state to now. Call once per
	// simulated second, before sampling (load averages and replay
	// cursors integrate faster than the sampling interval).
	Advance(now simclock.Time)
	// Sample returns the VM's current values for the 13 monitored
	// attributes, without measurement noise.
	Sample(id VMID) (metrics.Vector, error)
}

// Inventory exposes the substrate's VM bookkeeping.
type Inventory interface {
	// VMs lists the managed VMs in canonical sorted order.
	VMs() []VMID
	// Allocation returns the VM's current resource caps.
	Allocation(id VMID) (Allocation, error)
	// Migrating reports whether a live migration of the VM is in flight.
	Migrating(id VMID) (bool, error)
}

// Actuator executes prevention actions against the substrate.
type Actuator interface {
	// ScaleCPU sets the VM's CPU allocation cap (percentage points).
	// Returns ErrInsufficient when the local host cannot fit the
	// increase.
	ScaleCPU(now simclock.Time, id VMID, newCPUPct float64) error
	// ScaleMem sets the VM's memory allocation in MB.
	ScaleMem(now simclock.Time, id VMID, newMemMB float64) error
	// Migrate starts a live migration of the VM to a host that can fit
	// the desired post-migration allocations. Returns
	// ErrNoEligibleTarget when no host fits.
	Migrate(now simclock.Time, id VMID, desiredCPUPct, desiredMemMB float64) error
	// MigrationSeconds returns the expected live-migration duration for
	// a VM with the given memory allocation.
	MigrationSeconds(memMB float64) int64
}

// System is the planner-facing half of a substrate: bookkeeping plus
// actuation, without the metric stream.
type System interface {
	Inventory
	Actuator
}

// Substrate is the full contract the control loop is built against.
type Substrate interface {
	Inventory
	Actuator
	MetricSource
}
