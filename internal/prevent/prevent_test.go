package prevent

import (
	"errors"
	"testing"

	"prepare/internal/infer"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// fakeSystem is a scriptable substrate.System: it records every
// actuation and can be told to fail scaling (host full) or migration
// (no eligible target), so planner fallback paths are exercised
// without a simulator.
type fakeSystem struct {
	allocs map[substrate.VMID]substrate.Allocation

	scaleErr   error // returned by ScaleCPU/ScaleMem when set
	migrateErr error // returned by Migrate when set

	calls     []string
	migrating map[substrate.VMID]bool
}

func newFakeSystem() *fakeSystem {
	return &fakeSystem{
		allocs:    map[substrate.VMID]substrate.Allocation{"vm1": {CPUPct: 100, MemMB: 512}},
		migrating: make(map[substrate.VMID]bool),
	}
}

func (f *fakeSystem) VMs() []substrate.VMID { return []substrate.VMID{"vm1"} }

func (f *fakeSystem) Allocation(id substrate.VMID) (substrate.Allocation, error) {
	a, ok := f.allocs[id]
	if !ok {
		return substrate.Allocation{}, substrate.ErrNoSuchVM
	}
	return a, nil
}

func (f *fakeSystem) Migrating(id substrate.VMID) (bool, error) {
	if _, ok := f.allocs[id]; !ok {
		return false, substrate.ErrNoSuchVM
	}
	return f.migrating[id], nil
}

func (f *fakeSystem) ScaleCPU(_ simclock.Time, id substrate.VMID, newCPUPct float64) error {
	f.calls = append(f.calls, "scale_cpu")
	if f.scaleErr != nil {
		return f.scaleErr
	}
	a := f.allocs[id]
	a.CPUPct = newCPUPct
	f.allocs[id] = a
	return nil
}

func (f *fakeSystem) ScaleMem(_ simclock.Time, id substrate.VMID, newMemMB float64) error {
	f.calls = append(f.calls, "scale_mem")
	if f.scaleErr != nil {
		return f.scaleErr
	}
	a := f.allocs[id]
	a.MemMB = newMemMB
	f.allocs[id] = a
	return nil
}

func (f *fakeSystem) Migrate(_ simclock.Time, id substrate.VMID, desiredCPUPct, desiredMemMB float64) error {
	f.calls = append(f.calls, "migrate")
	if f.migrateErr != nil {
		return f.migrateErr
	}
	f.allocs[id] = substrate.Allocation{CPUPct: desiredCPUPct, MemMB: desiredMemMB}
	f.migrating[id] = true
	return nil
}

func (f *fakeSystem) MigrationSeconds(float64) int64 { return 10 }

func memDiag(vm substrate.VMID) infer.Diagnosis {
	return infer.Diagnosis{VM: vm, Ranked: []metrics.Attribute{metrics.FreeMem, metrics.CPUTotal}}
}

func cpuDiag(vm substrate.VMID) infer.Diagnosis {
	return infer.Diagnosis{VM: vm, Ranked: []metrics.Attribute{metrics.CPUTotal, metrics.FreeMem}}
}

func TestNewPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(nil, ScalingFirst, Config{}); err == nil {
		t.Error("nil system should fail")
	}
	if _, err := NewPlanner(newFakeSystem(), Policy(9), Config{}); err == nil {
		t.Error("bad policy should fail")
	}
	p, err := NewPlanner(newFakeSystem(), ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy() != ScalingFirst {
		t.Error("policy accessor wrong")
	}
}

func TestScalingFirstScalesTopResource(t *testing.T) {
	sys := newFakeSystem()
	p, err := NewPlanner(sys, ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	step, err := p.Prevent(10, memDiag("vm1"), 0)
	if err != nil {
		t.Fatalf("Prevent: %v", err)
	}
	if step.Kind != substrate.ActionScaleMem {
		t.Errorf("kind = %v, want scale_mem", step.Kind)
	}
	if got := sys.allocs["vm1"].MemMB; got != 512*1.75 {
		t.Errorf("mem alloc = %g, want 896", got)
	}
}

func TestScalingSecondAttemptUsesNextResource(t *testing.T) {
	p, err := NewPlanner(newFakeSystem(), ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	step, err := p.Prevent(10, memDiag("vm1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if step.Kind != substrate.ActionScaleCPU {
		t.Errorf("attempt 1 kind = %v, want scale_cpu", step.Kind)
	}
}

func TestExhaustedAttemptsStop(t *testing.T) {
	// The paper migrates only when scaling cannot be applied; once every
	// implicated resource has been scaled without effect, the planner
	// stops rather than disturb the VM with a migration.
	p, err := NewPlanner(newFakeSystem(), ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Prevent(10, memDiag("vm1"), 2); !errors.Is(err, ErrExhausted) {
		t.Errorf("exhausted attempt error = %v, want ErrExhausted", err)
	}
}

func TestScalingFallsBackToMigrationWhenHostFull(t *testing.T) {
	sys := newFakeSystem()
	sys.scaleErr = substrate.ErrInsufficient // host cannot fit the scaled cap
	p, err := NewPlanner(sys, ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	step, err := p.Prevent(10, cpuDiag("vm1"), 0)
	if err != nil {
		t.Fatalf("Prevent: %v", err)
	}
	if step.Kind != substrate.ActionMigrate {
		t.Errorf("kind = %v, want migrate fallback", step.Kind)
	}
	if !sys.migrating["vm1"] {
		t.Error("vm should be migrating")
	}
	want := []string{"scale_cpu", "migrate"}
	if len(sys.calls) != 2 || sys.calls[0] != want[0] || sys.calls[1] != want[1] {
		t.Errorf("actuation order = %v, want %v", sys.calls, want)
	}
}

func TestMigrationFallbackRequestsGrownAllocation(t *testing.T) {
	// The fallback migration must carry the scaled-up (not current)
	// allocation so the target host reserves enough headroom.
	sys := newFakeSystem()
	sys.scaleErr = substrate.ErrInsufficient
	p, err := NewPlanner(sys, ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Prevent(10, cpuDiag("vm1"), 0); err != nil {
		t.Fatal(err)
	}
	if got := sys.allocs["vm1"].CPUPct; got != 100*1.5 {
		t.Errorf("migrated CPU allocation = %g, want 150", got)
	}
	if got := sys.allocs["vm1"].MemMB; got != 512 {
		t.Errorf("migrated mem allocation = %g, want unchanged 512", got)
	}
}

func TestScalingErrorOtherThanInsufficientPropagates(t *testing.T) {
	// A permanent, unclassified scaling error passes through unchanged:
	// no migrate fallback, no retry. (Transient errors — ErrUnavailable,
	// ErrMigrating — are absorbed by the retry ladder instead; see
	// retry_test.go.)
	permanent := errors.New("hypervisor rejected the call")
	sys := newFakeSystem()
	sys.scaleErr = permanent
	p, err := NewPlanner(sys, ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Prevent(10, cpuDiag("vm1"), 0); !errors.Is(err, permanent) {
		t.Errorf("error = %v, want passthrough (no migrate fallback)", err)
	}
	if len(sys.calls) != 1 {
		t.Errorf("calls = %v, want only the failed scale", sys.calls)
	}
}

func TestMigrationOnlyPolicyMigratesDirectly(t *testing.T) {
	sys := newFakeSystem()
	p, err := NewPlanner(sys, MigrationOnly, Config{})
	if err != nil {
		t.Fatal(err)
	}
	step, err := p.Prevent(10, memDiag("vm1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if step.Kind != substrate.ActionMigrate {
		t.Errorf("kind = %v, want migrate", step.Kind)
	}
	if len(sys.calls) != 1 || sys.calls[0] != "migrate" {
		t.Errorf("calls = %v, want direct migrate", sys.calls)
	}
}

func TestMigrationExhaustedWhenNoTarget(t *testing.T) {
	sys := newFakeSystem()
	sys.migrateErr = substrate.ErrNoEligibleTarget
	p, err := NewPlanner(sys, MigrationOnly, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Prevent(10, memDiag("vm1"), 0); !errors.Is(err, ErrExhausted) {
		t.Errorf("want ErrExhausted, got %v", err)
	}
}

func TestSaturatedAllocation(t *testing.T) {
	sys := newFakeSystem()
	sys.allocs["vm1"] = substrate.Allocation{CPUPct: 200, MemMB: 512}
	p, err := NewPlanner(sys, ScalingFirst, Config{MaxCPU: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Prevent(10, cpuDiag("vm1"), 0); !errors.Is(err, ErrSaturated) {
		t.Errorf("want ErrSaturated, got %v", err)
	}
}

func TestEmptyDiagnosisDefaultsToCPU(t *testing.T) {
	p, err := NewPlanner(newFakeSystem(), ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	step, err := p.Prevent(10, infer.Diagnosis{VM: "vm1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if step.Kind != substrate.ActionScaleCPU {
		t.Errorf("kind = %v, want scale_cpu default", step.Kind)
	}
}

func TestPreventUnknownVM(t *testing.T) {
	p, err := NewPlanner(newFakeSystem(), ScalingFirst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Prevent(0, memDiag("ghost"), 0); !errors.Is(err, substrate.ErrNoSuchVM) {
		t.Errorf("unknown VM error = %v, want ErrNoSuchVM", err)
	}
}

func TestValidateAlertsStoppedIsEffective(t *testing.T) {
	var v Validator
	got := v.Validate(nil, nil, true)
	if got != Effective {
		t.Errorf("validation = %v, want effective", got)
	}
}

func TestValidateUnchangedUsageIsIneffective(t *testing.T) {
	var v Validator
	before := []float64{100, 101, 99}
	after := []float64{100, 100, 101}
	got := v.Validate(before, after, false)
	if got != Ineffective {
		t.Errorf("validation = %v, want ineffective", got)
	}
}

func TestValidateChangedUsageIsInconclusive(t *testing.T) {
	var v Validator
	before := []float64{100, 100}
	after := []float64{400, 420}
	got := v.Validate(before, after, false)
	if got != Inconclusive {
		t.Errorf("validation = %v, want inconclusive", got)
	}
}

func TestValidateEmptyWindowsInconclusive(t *testing.T) {
	var v Validator
	if got := v.Validate(nil, nil, false); got != Inconclusive {
		t.Errorf("validation = %v, want inconclusive", got)
	}
}

func TestValidateCustomThreshold(t *testing.T) {
	// A ~15% drop is Inconclusive at the 10% default but Ineffective when
	// the planner demands a 25% swing; the fallthrough to the next ranked
	// metric keys off this verdict.
	before := []float64{100, 100}
	after := []float64{85, 85}
	if got := (Validator{}).Validate(before, after, false); got != Inconclusive {
		t.Errorf("default threshold validation = %v, want inconclusive", got)
	}
	strict := Validator{MinRelChange: 0.25}
	if got := strict.Validate(before, after, false); got != Ineffective {
		t.Errorf("strict threshold validation = %v, want ineffective", got)
	}
}

func TestValidationAndPolicyStrings(t *testing.T) {
	if Effective.String() != "effective" || Ineffective.String() != "ineffective" || Inconclusive.String() != "inconclusive" {
		t.Error("validation names wrong")
	}
	if ScalingFirst.String() != "scaling" || MigrationOnly.String() != "migration" {
		t.Error("policy names wrong")
	}
}
