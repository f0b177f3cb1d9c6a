// Package prevent implements PREPARE's predictive prevention actuation:
// elastic VM resource scaling (CPU and memory) as the first-line,
// light-weight action; live VM migration when scaling cannot be applied
// (insufficient resources on the local host) or is requested explicitly;
// and online effectiveness validation that compares resource usage in a
// look-back window before the action against a look-ahead window after
// it, falling through to the next ranked metric when a prevention had no
// effect (the paper's answer to black-box diagnosis mistakes).
package prevent

import (
	"errors"
	"fmt"

	"prepare/internal/infer"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// Policy selects the actuation strategy for an experiment.
type Policy int

// The policies evaluated in the paper.
const (
	// ScalingFirst scales the pinpointed resource and only migrates when
	// the local host cannot fit the scaled allocation (the paper's
	// default policy and the Figure 6/7 configuration).
	ScalingFirst Policy = iota + 1
	// MigrationOnly uses live VM migration as the prevention action (the
	// Figure 8/9 configuration).
	MigrationOnly
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case ScalingFirst:
		return "scaling"
	case MigrationOnly:
		return "migration"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config tunes the actuator.
type Config struct {
	// CPUStep multiplies the CPU allocation on each scaling action
	// (default 1.5).
	CPUStep float64
	// MemStep multiplies the memory allocation on each scaling action
	// (default 1.75).
	MemStep float64
	// MaxCPU caps a VM's CPU allocation in percentage points
	// (default 200, one full VCL host).
	MaxCPU float64
	// MaxMemMB caps a VM's memory allocation (default 3072).
	MaxMemMB float64
	// MaxTransientRetries bounds how many consecutive transient actuator
	// failures (substrate.ErrUnavailable and friends) one VM's
	// prevention absorbs before the failure is treated as permanent:
	// scaling falls through to migration, migration reports ErrExhausted
	// (default 3; negative disables retrying entirely).
	MaxTransientRetries int
	// RetryBackoffS is the simulated-clock backoff before the first
	// transient retry; it doubles per consecutive failure and is capped
	// at MaxRetryBackoffS (default 2).
	RetryBackoffS int64
	// MaxRetryBackoffS caps the doubling backoff (default 60).
	MaxRetryBackoffS int64
}

func (c Config) withDefaults() Config {
	if c.CPUStep == 0 {
		c.CPUStep = 1.5
	}
	if c.MemStep == 0 {
		c.MemStep = 1.75
	}
	if c.MaxCPU == 0 {
		c.MaxCPU = 200
	}
	if c.MaxMemMB == 0 {
		c.MaxMemMB = 3072
	}
	if c.MaxTransientRetries == 0 {
		c.MaxTransientRetries = 3
	}
	if c.MaxTransientRetries < 0 {
		c.MaxTransientRetries = 0
	}
	if c.RetryBackoffS == 0 {
		c.RetryBackoffS = 2
	}
	if c.MaxRetryBackoffS == 0 {
		c.MaxRetryBackoffS = 60
	}
	return c
}

// Step describes one executed prevention action.
type Step struct {
	Time     simclock.Time
	VM       substrate.VMID
	Kind     substrate.ActionKind
	Resource infer.ResourceKind
	Detail   string
}

// Errors surfaced to the control loop.
var (
	// ErrExhausted means every ranked resource has been tried and
	// migration is not possible either.
	ErrExhausted = errors.New("prevent: prevention options exhausted")
	// ErrSaturated means the VM is already at its allocation caps.
	ErrSaturated = errors.New("prevent: VM already at maximum allocation")
	// ErrBackoff means a transient actuator failure was absorbed: the
	// same prevention attempt is scheduled for retry after a
	// deterministic sim-clock backoff. The caller keeps the attempt
	// index unchanged and calls Prevent again on a later tick.
	ErrBackoff = errors.New("prevent: transient actuator failure, retry scheduled")
)

// retryState tracks one VM's transient-failure retry ladder.
type retryState struct {
	// tries counts consecutive transient failures absorbed so far.
	tries int
	// nextTry is the earliest instant the next attempt may execute.
	nextTry simclock.Time
}

// Planner executes prevention actions against any substrate's
// inventory and actuator; it never sees the simulator directly.
//
// Transient actuator failures (substrate.IsTransient) do not abort a
// prevention: the planner absorbs up to MaxTransientRetries of them per
// VM, spacing re-attempts by a deterministic doubling sim-clock backoff
// (Prevent returns ErrBackoff while one is pending). Only when the
// transient budget is exhausted is the failure treated like a permanent
// one: scaling falls through to migration, migration reports
// ErrExhausted.
type Planner struct {
	sys    substrate.System
	cfg    Config
	policy Policy
	retry  map[substrate.VMID]*retryState
}

// NewPlanner builds a planner over the substrate.
func NewPlanner(sys substrate.System, policy Policy, cfg Config) (*Planner, error) {
	if sys == nil {
		return nil, errors.New("prevent: substrate system is required")
	}
	if policy != ScalingFirst && policy != MigrationOnly {
		return nil, fmt.Errorf("prevent: unsupported policy %d", policy)
	}
	return &Planner{
		sys:    sys,
		cfg:    cfg.withDefaults(),
		policy: policy,
		retry:  make(map[substrate.VMID]*retryState),
	}, nil
}

// Policy returns the planner's policy.
func (p *Planner) Policy() Policy { return p.policy }

// Prevent executes the attempt-th prevention step for the diagnosis.
// Attempt 0 targets the top-ranked resource; subsequent attempts walk
// down the ranked list (the paper's "scaling the next metric in the list
// of related metrics provided by the TAN model"); once the list is
// exhausted the planner migrates. Under MigrationOnly the first attempt
// migrates directly. Scaling that cannot fit on the local host falls
// back to migration within the same call.
//
// Transient substrate failures return ErrBackoff and leave the attempt
// ladder untouched; the caller re-invokes Prevent with the same attempt
// on a later tick and the planner re-executes once the backoff expires.
func (p *Planner) Prevent(now simclock.Time, diag infer.Diagnosis, attempt int) (Step, error) {
	if rs, ok := p.retry[diag.VM]; ok && now.Before(rs.nextTry) {
		return Step{}, ErrBackoff
	}
	alloc, err := p.sys.Allocation(diag.VM)
	if err != nil {
		if substrate.IsTransient(err) {
			if p.deferRetry(now, diag.VM) {
				return Step{}, ErrBackoff
			}
			return Step{}, fmt.Errorf("%w: allocation lookup kept failing: %v", ErrExhausted, err)
		}
		return Step{}, fmt.Errorf("prevent: %w", err)
	}
	resources := infer.RankedResources(diag)
	if len(resources) == 0 {
		// Nothing attributable: default to CPU (the most common culprit
		// for black-box SLO violations).
		resources = []infer.ResourceKind{infer.ResourceCPU}
	}

	if p.policy == MigrationOnly {
		if attempt >= len(resources) {
			return Step{}, ErrExhausted
		}
		return p.migrate(now, diag.VM, alloc, resources[attempt])
	}

	if attempt >= len(resources) {
		// Every implicated resource has been scaled without effect. The
		// paper migrates only when scaling cannot be applied, so stop
		// here rather than disturb the VM further.
		return Step{}, ErrExhausted
	}
	res := resources[attempt]
	step, err := p.scale(now, diag.VM, alloc, res)
	switch {
	case err == nil:
		p.clearRetry(diag.VM)
		return step, nil
	case errors.Is(err, substrate.ErrInsufficient):
		// Local host cannot fit the scaled allocation — a permanent
		// answer, whether genuine or injected: migrate instead.
		p.clearRetry(diag.VM)
		return p.migrate(now, diag.VM, alloc, res)
	case substrate.IsTransient(err):
		if p.deferRetry(now, diag.VM) {
			return Step{}, ErrBackoff
		}
		// Transient budget exhausted: treat the scaling path as down
		// and fall through to migration, like ErrInsufficient.
		return p.migrate(now, diag.VM, alloc, res)
	default:
		return Step{}, err
	}
}

// deferRetry books one more transient failure for the VM. It reports
// true when a retry was scheduled (nextTry pushed out by the doubling
// backoff) and false when the per-VM transient budget is exhausted, in
// which case the state is reset and the caller must treat the failure
// as permanent.
func (p *Planner) deferRetry(now simclock.Time, id substrate.VMID) bool {
	rs := p.retry[id]
	if rs == nil {
		rs = &retryState{}
		p.retry[id] = rs
	}
	rs.tries++
	if rs.tries > p.cfg.MaxTransientRetries {
		delete(p.retry, id)
		return false
	}
	backoff := p.cfg.RetryBackoffS << (rs.tries - 1)
	if backoff > p.cfg.MaxRetryBackoffS {
		backoff = p.cfg.MaxRetryBackoffS
	}
	rs.nextTry = now.Add(backoff)
	return true
}

// clearRetry forgets the VM's transient-failure ladder after a
// successful or permanently failed actuation.
func (p *Planner) clearRetry(id substrate.VMID) {
	delete(p.retry, id)
}

// scale grows the VM's allocation of the resource by the configured step.
func (p *Planner) scale(now simclock.Time, id substrate.VMID, alloc substrate.Allocation, res infer.ResourceKind) (Step, error) {
	switch res {
	case infer.ResourceMemory:
		target := alloc.MemMB * p.cfg.MemStep
		if target > p.cfg.MaxMemMB {
			target = p.cfg.MaxMemMB
		}
		if target <= alloc.MemMB {
			return Step{}, ErrSaturated
		}
		if err := p.sys.ScaleMem(now, id, target); err != nil {
			return Step{}, err
		}
		return Step{
			Time: now, VM: id, Kind: substrate.ActionScaleMem, Resource: res,
			Detail: fmt.Sprintf("mem->%.0fMB", target),
		}, nil
	default: // CPU and anything unattributable
		target := alloc.CPUPct * p.cfg.CPUStep
		if target > p.cfg.MaxCPU {
			target = p.cfg.MaxCPU
		}
		if target <= alloc.CPUPct {
			return Step{}, ErrSaturated
		}
		if err := p.sys.ScaleCPU(now, id, target); err != nil {
			return Step{}, err
		}
		return Step{
			Time: now, VM: id, Kind: substrate.ActionScaleCPU, Resource: infer.ResourceCPU,
			Detail: fmt.Sprintf("cpu->%.0f%%", target),
		}, nil
	}
}

// migrate relocates the VM to a host where the implicated resource can
// be grown by the configured step.
func (p *Planner) migrate(now simclock.Time, id substrate.VMID, alloc substrate.Allocation, res infer.ResourceKind) (Step, error) {
	desiredCPU := alloc.CPUPct
	desiredMem := alloc.MemMB
	switch res {
	case infer.ResourceMemory:
		desiredMem = alloc.MemMB * p.cfg.MemStep
		if desiredMem > p.cfg.MaxMemMB {
			desiredMem = p.cfg.MaxMemMB
		}
	default:
		desiredCPU = alloc.CPUPct * p.cfg.CPUStep
		if desiredCPU > p.cfg.MaxCPU {
			desiredCPU = p.cfg.MaxCPU
		}
	}
	if err := p.sys.Migrate(now, id, desiredCPU, desiredMem); err != nil {
		if errors.Is(err, substrate.ErrNoEligibleTarget) {
			p.clearRetry(id)
			return Step{}, fmt.Errorf("%w: %v", ErrExhausted, err)
		}
		if substrate.IsTransient(err) {
			if p.deferRetry(now, id) {
				return Step{}, ErrBackoff
			}
			// Migration is the last rung of the ladder; when even its
			// transient budget is spent the VM's options are exhausted.
			return Step{}, fmt.Errorf("%w: migration kept failing transiently: %v", ErrExhausted, err)
		}
		return Step{}, err
	}
	p.clearRetry(id)
	return Step{
		Time: now, VM: id, Kind: substrate.ActionMigrate, Resource: res,
		Detail: fmt.Sprintf("migrate cpu=%.0f mem=%.0f", desiredCPU, desiredMem),
	}, nil
}

// Validation is the outcome of an effectiveness check.
type Validation int

// Validation outcomes.
const (
	// Effective means the anomaly alerts stopped after the action.
	Effective Validation = iota + 1
	// Ineffective means alerts persist and resource usage did not change,
	// so the action had no effect and the next option should be tried.
	Ineffective
	// Inconclusive means alerts persist but usage shifted; give the
	// action more time before escalating.
	Inconclusive
)

// String returns the validation outcome name.
func (v Validation) String() string {
	switch v {
	case Effective:
		return "effective"
	case Ineffective:
		return "ineffective"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("validation(%d)", int(v))
	}
}

// Validator implements the look-back/look-ahead effectiveness check.
type Validator struct {
	// MinRelChange is the relative usage change below which a prevention
	// is judged to have had no effect (default 0.10).
	MinRelChange float64
}

// Validate compares the implicated attribute's usage before and after a
// prevention action, given as its sampled values in each window.
// alertsStopped reflects whether the anomaly prediction models stopped
// raising alerts after the action.
func (v Validator) Validate(before, after []float64, alertsStopped bool) Validation {
	if alertsStopped {
		return Effective
	}
	minChange := v.MinRelChange
	if minChange == 0 {
		minChange = 0.10
	}
	if len(before) == 0 || len(after) == 0 {
		return Inconclusive
	}
	bm := metrics.Summarize(before).Mean
	am := metrics.Summarize(after).Mean
	base := bm
	if base < 1e-9 {
		base = 1e-9
	}
	rel := (am - bm) / base
	if rel < 0 {
		rel = -rel
	}
	if rel < minChange {
		return Ineffective
	}
	return Inconclusive
}
