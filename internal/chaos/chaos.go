// Package chaos implements a deterministic fault-injecting decorator
// around any substrate implementation. Real clouds drop metric samples,
// return stale or frozen sensor readings, surface NaNs from broken
// collectors, time out scaling calls, and stall live migrations; the
// decorator reproduces all of these between the control loop and its
// backend (cloudsim or replay) so the loop's resilience can be tested
// without touching either.
//
// Every injection decision is drawn from a self-contained counter-mode
// PRNG keyed by (plan seed, simulated time, VM, decision site): the
// fault schedule is a pure function of the plan, independent of call
// order, goroutine interleaving, or how many tenants share a process.
// Two runs with the same seed and plan inject byte-identical fault
// schedules, which is what lets the engine's shard/worker-count
// determinism guarantees survive chaos testing.
//
// The decorator is stateful (stale replay and stuck windows remember
// previous samples) but, like the substrates it wraps, is driven from a
// single control-loop goroutine per tenant and is not safe for
// concurrent use.
package chaos

import (
	"errors"
	"fmt"
	"math"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// FaultKind names one injectable infrastructure fault.
type FaultKind int

// The fault taxonomy (see DESIGN.md "Failure model").
const (
	// FaultMetricDrop: the sample is lost; Sample returns ErrUnavailable.
	FaultMetricDrop FaultKind = iota + 1
	// FaultMetricStale: the previous sample is delivered again (a delayed
	// collector flushing old data).
	FaultMetricStale
	// FaultMetricStuck: the sensor freezes and repeats one vector for a
	// window of seconds.
	FaultMetricStuck
	// FaultMetricNaN: a broken collector poisons attributes with NaN.
	FaultMetricNaN
	// FaultActuatorTransient: a scaling/migration/inventory call fails
	// with ErrUnavailable but would succeed if retried.
	FaultActuatorTransient
	// FaultActuatorInsufficient: scaling spuriously reports
	// ErrInsufficient even though the host has room.
	FaultActuatorInsufficient
	// FaultActuatorNoTarget: migration spuriously reports
	// ErrNoEligibleTarget.
	FaultActuatorNoTarget
	// FaultMigrationStall: the reported live-migration duration is
	// multiplied by the plan's stall factor.
	FaultMigrationStall
)

// String returns the fault name.
func (k FaultKind) String() string {
	switch k {
	case FaultMetricDrop:
		return "metric-drop"
	case FaultMetricStale:
		return "metric-stale"
	case FaultMetricStuck:
		return "metric-stuck"
	case FaultMetricNaN:
		return "metric-nan"
	case FaultActuatorTransient:
		return "actuator-transient"
	case FaultActuatorInsufficient:
		return "actuator-insufficient"
	case FaultActuatorNoTarget:
		return "actuator-no-target"
	case FaultMigrationStall:
		return "migration-stall"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Event records one injected fault, for tests and postmortems.
type Event struct {
	Time simclock.Time
	VM   substrate.VMID
	Kind FaultKind
	// Op names the intercepted call ("sample", "scale_cpu", ...).
	Op string
}

// String formats the event as "12s vm1 metric-drop (sample)".
func (e Event) String() string {
	return fmt.Sprintf("%v %s %v (%s)", e.Time, e.VM, e.Kind, e.Op)
}

// Plan configures the fault schedule. The zero value injects nothing;
// rates are per-opportunity probabilities in [0, 1].
type Plan struct {
	// Seed keys the schedule; the same seed and plan always produce the
	// same injections.
	Seed int64

	// Metric-path rates, rolled once per VM per Sample call.
	DropRate  float64
	StaleRate float64
	StuckRate float64
	NaNRate   float64

	// Actuator-path rates, rolled once per intercepted call.
	TransientRate    float64
	InsufficientRate float64
	NoTargetRate     float64
	StallRate        float64

	// StuckSeconds is how long a frozen sensor repeats its vector
	// (default 25).
	StuckSeconds int64
	// StallFactor multiplies the reported migration duration on a stall
	// (default 4).
	StallFactor float64
	// NaNAttrs is how many attributes a NaN fault poisons (default 2).
	NaNAttrs int

	// From/Until bound the active window in simulated seconds; Until 0
	// means no upper bound.
	From, Until simclock.Time
	// VMs restricts per-VM faults to the listed VMs; nil targets all.
	// The VM-agnostic migration-stall roll ignores the restriction.
	VMs []substrate.VMID
}

// Uniform returns a plan injecting every fault kind at the same rate.
func Uniform(seed int64, rate float64) Plan {
	return Plan{
		Seed:     seed,
		DropRate: rate, StaleRate: rate, StuckRate: rate, NaNRate: rate,
		TransientRate: rate, InsufficientRate: rate, NoTargetRate: rate, StallRate: rate,
	}
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.DropRate > 0 || p.StaleRate > 0 || p.StuckRate > 0 || p.NaNRate > 0 ||
		p.TransientRate > 0 || p.InsufficientRate > 0 || p.NoTargetRate > 0 || p.StallRate > 0
}

func (p Plan) withDefaults() Plan {
	if p.StuckSeconds == 0 {
		p.StuckSeconds = 25
	}
	if p.StallFactor == 0 {
		p.StallFactor = 4
	}
	if p.NaNAttrs == 0 {
		p.NaNAttrs = 2
	}
	return p
}

func (p Plan) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropRate", p.DropRate}, {"StaleRate", p.StaleRate},
		{"StuckRate", p.StuckRate}, {"NaNRate", p.NaNRate},
		{"TransientRate", p.TransientRate}, {"InsufficientRate", p.InsufficientRate},
		{"NoTargetRate", p.NoTargetRate}, {"StallRate", p.StallRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("chaos: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.StuckSeconds < 0 {
		return fmt.Errorf("chaos: StuckSeconds %d is negative", p.StuckSeconds)
	}
	if p.StallFactor < 1 {
		return fmt.Errorf("chaos: StallFactor %v is below 1", p.StallFactor)
	}
	if p.NaNAttrs < 0 || p.NaNAttrs > metrics.NumAttributes {
		return fmt.Errorf("chaos: NaNAttrs %d outside [0, %d]", p.NaNAttrs, metrics.NumAttributes)
	}
	return nil
}

// maxEvents bounds the in-memory fault log; injections past the cap are
// still counted in telemetry and Stats, just not individually recorded.
const maxEvents = 1 << 15

// Substrate wraps an inner substrate and injects the plan's faults.
type Substrate struct {
	inner substrate.Substrate
	plan  Plan
	now   simclock.Time

	// targets is nil when every VM is fair game.
	targets map[substrate.VMID]bool

	// last holds each VM's previous clean inner sample (stale replay).
	last map[substrate.VMID]metrics.Vector
	// stuckUntil/stuckVec track in-progress frozen-sensor windows.
	stuckUntil map[substrate.VMID]simclock.Time
	stuckVec   map[substrate.VMID]metrics.Vector

	events   []Event
	injected [FaultMigrationStall + 1]int64

	tel instruments
}

// instruments is the decorator's telemetry wiring; all counters are
// nil-safe so a nil registry costs nothing but nil checks.
type instruments struct {
	drop, stale, stuck, nan *telemetry.Counter
	transient, insufficient *telemetry.Counter
	noTarget, stall         *telemetry.Counter
}

var _ substrate.Substrate = (*Substrate)(nil)

// New wraps the inner substrate with the plan's fault schedule.
func New(inner substrate.Substrate, plan Plan) (*Substrate, error) {
	if inner == nil {
		return nil, errors.New("chaos: inner substrate is required")
	}
	plan = plan.withDefaults()
	if err := plan.validate(); err != nil {
		return nil, err
	}
	s := &Substrate{
		inner:      inner,
		plan:       plan,
		last:       make(map[substrate.VMID]metrics.Vector),
		stuckUntil: make(map[substrate.VMID]simclock.Time),
		stuckVec:   make(map[substrate.VMID]metrics.Vector),
	}
	if len(plan.VMs) > 0 {
		s.targets = make(map[substrate.VMID]bool, len(plan.VMs))
		for _, id := range plan.VMs {
			s.targets[id] = true
		}
	}
	return s, nil
}

// SetTelemetry routes per-fault injection counters into the registry
// (nil disables, at zero cost on the interception path).
func (s *Substrate) SetTelemetry(reg *telemetry.Registry) {
	s.tel = instruments{
		drop:         reg.Counter("chaos.injected.metric_drop"),
		stale:        reg.Counter("chaos.injected.metric_stale"),
		stuck:        reg.Counter("chaos.injected.metric_stuck"),
		nan:          reg.Counter("chaos.injected.metric_nan"),
		transient:    reg.Counter("chaos.injected.actuator_transient"),
		insufficient: reg.Counter("chaos.injected.actuator_insufficient"),
		noTarget:     reg.Counter("chaos.injected.actuator_no_target"),
		stall:        reg.Counter("chaos.injected.migration_stall"),
	}
}

// Plan returns the (defaulted) plan the decorator runs.
func (s *Substrate) Plan() Plan { return s.plan }

// Events returns the recorded fault log, capped at maxEvents entries.
func (s *Substrate) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Injected returns how many faults of the kind were injected so far.
func (s *Substrate) Injected(k FaultKind) int64 {
	if k < 1 || int(k) >= len(s.injected) {
		return 0
	}
	return s.injected[k]
}

// TotalInjected returns the total injected fault count.
func (s *Substrate) TotalInjected() int64 {
	var n int64
	for _, c := range s.injected {
		n += c
	}
	return n
}

// inWindow reports whether the plan is active at the current instant.
func (s *Substrate) inWindow() bool {
	if s.now.Before(s.plan.From) {
		return false
	}
	return s.plan.Until == 0 || !s.now.After(s.plan.Until)
}

// active reports whether the plan applies to the VM at the current
// instant.
func (s *Substrate) active(id substrate.VMID) bool {
	if !s.inWindow() {
		return false
	}
	if s.targets == nil {
		return true
	}
	return s.targets[id]
}

func (s *Substrate) record(k FaultKind, id substrate.VMID, op string, c *telemetry.Counter) {
	s.injected[k]++
	c.Inc()
	if len(s.events) < maxEvents {
		s.events = append(s.events, Event{Time: s.now, VM: id, Kind: k, Op: op})
	}
}

// --- MetricSource ----------------------------------------------------

// Advance moves the decorator's clock and the inner source.
func (s *Substrate) Advance(now simclock.Time) {
	s.now = now
	s.inner.Advance(now)
}

// Sample returns the inner sample, possibly dropped, replayed stale,
// frozen, or poisoned according to the schedule.
func (s *Substrate) Sample(id substrate.VMID) (metrics.Vector, error) {
	v, err := s.inner.Sample(id)
	if err != nil {
		return v, err
	}
	prev, havePrev := s.last[id]
	s.last[id] = v
	if !s.active(id) {
		return v, nil
	}
	if s.roll(opMetricDrop, id, s.plan.DropRate) {
		s.record(FaultMetricDrop, id, "sample", s.tel.drop)
		return metrics.Vector{}, fmt.Errorf("chaos: dropped sample for %s: %w", id, substrate.ErrUnavailable)
	}
	if until, stuck := s.stuckUntil[id]; stuck {
		if s.now.Before(until) {
			s.record(FaultMetricStuck, id, "sample", s.tel.stuck)
			return s.stuckVec[id], nil
		}
		delete(s.stuckUntil, id)
		delete(s.stuckVec, id)
	} else if s.roll(opMetricStuck, id, s.plan.StuckRate) {
		s.stuckUntil[id] = s.now.Add(s.plan.StuckSeconds)
		s.stuckVec[id] = v
		s.record(FaultMetricStuck, id, "sample", s.tel.stuck)
		return v, nil
	}
	if havePrev && s.roll(opMetricStale, id, s.plan.StaleRate) {
		s.record(FaultMetricStale, id, "sample", s.tel.stale)
		v = prev
	}
	if s.roll(opMetricNaN, id, s.plan.NaNRate) {
		s.record(FaultMetricNaN, id, "sample", s.tel.nan)
		start := int(s.draw(opMetricNaNAttr, id) % metrics.NumAttributes)
		for i := 0; i < s.plan.NaNAttrs; i++ {
			v[(start+i*5)%metrics.NumAttributes] = math.NaN()
		}
	}
	return v, nil
}

// --- Inventory -------------------------------------------------------

// VMs lists the inner substrate's VMs.
func (s *Substrate) VMs() []substrate.VMID { return s.inner.VMs() }

// Allocation returns the inner allocation; under chaos the lookup can
// fail transiently like any other control-plane call.
func (s *Substrate) Allocation(id substrate.VMID) (substrate.Allocation, error) {
	if s.active(id) && s.roll(opAllocation, id, s.plan.TransientRate) {
		s.record(FaultActuatorTransient, id, "allocation", s.tel.transient)
		return substrate.Allocation{}, fmt.Errorf("chaos: allocation lookup for %s: %w", id, substrate.ErrUnavailable)
	}
	return s.inner.Allocation(id)
}

// Migrating reports the inner migration state, with transient lookup
// failures injected.
func (s *Substrate) Migrating(id substrate.VMID) (bool, error) {
	if s.active(id) && s.roll(opMigrating, id, s.plan.TransientRate) {
		s.record(FaultActuatorTransient, id, "migrating", s.tel.transient)
		return false, fmt.Errorf("chaos: migration lookup for %s: %w", id, substrate.ErrUnavailable)
	}
	return s.inner.Migrating(id)
}

// --- Actuator --------------------------------------------------------

// ScaleCPU executes the inner scaling, with transient failures and
// spurious ErrInsufficient injected.
func (s *Substrate) ScaleCPU(now simclock.Time, id substrate.VMID, newCPUPct float64) error {
	if err := s.actuatorFault(opScaleCPU, id, "scale_cpu", true); err != nil {
		return err
	}
	return s.inner.ScaleCPU(now, id, newCPUPct)
}

// ScaleMem executes the inner scaling, with transient failures and
// spurious ErrInsufficient injected.
func (s *Substrate) ScaleMem(now simclock.Time, id substrate.VMID, newMemMB float64) error {
	if err := s.actuatorFault(opScaleMem, id, "scale_mem", true); err != nil {
		return err
	}
	return s.inner.ScaleMem(now, id, newMemMB)
}

// actuatorFault rolls the transient and, for scaling calls, the
// spurious-insufficient faults for one actuation.
func (s *Substrate) actuatorFault(op uint64, id substrate.VMID, name string, scaling bool) error {
	if !s.active(id) {
		return nil
	}
	if s.roll(op, id, s.plan.TransientRate) {
		s.record(FaultActuatorTransient, id, name, s.tel.transient)
		return fmt.Errorf("chaos: %s on %s: %w", name, id, substrate.ErrUnavailable)
	}
	if scaling && s.roll(op+opInsufficientSalt, id, s.plan.InsufficientRate) {
		s.record(FaultActuatorInsufficient, id, name, s.tel.insufficient)
		return fmt.Errorf("chaos: %s on %s: %w", name, id, substrate.ErrInsufficient)
	}
	return nil
}

// Migrate executes the inner migration, with transient failures and
// spurious ErrNoEligibleTarget injected.
func (s *Substrate) Migrate(now simclock.Time, id substrate.VMID, desiredCPUPct, desiredMemMB float64) error {
	if s.active(id) {
		if s.roll(opMigrate, id, s.plan.TransientRate) {
			s.record(FaultActuatorTransient, id, "migrate", s.tel.transient)
			return fmt.Errorf("chaos: migrate %s: %w", id, substrate.ErrUnavailable)
		}
		if s.roll(opMigrateTarget, id, s.plan.NoTargetRate) {
			s.record(FaultActuatorNoTarget, id, "migrate", s.tel.noTarget)
			return fmt.Errorf("chaos: migrate %s: %w", id, substrate.ErrNoEligibleTarget)
		}
	}
	return s.inner.Migrate(now, id, desiredCPUPct, desiredMemMB)
}

// MigrationSeconds reports the inner duration, multiplied by the stall
// factor when a migration-stall fault fires at the current instant.
func (s *Substrate) MigrationSeconds(memMB float64) int64 {
	d := s.inner.MigrationSeconds(memMB)
	if s.inWindow() && s.roll(opMigStall, "", s.plan.StallRate) {
		s.record(FaultMigrationStall, "", "migration_seconds", s.tel.stall)
		return int64(float64(d) * s.plan.StallFactor)
	}
	return d
}
