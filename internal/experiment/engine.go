package experiment

import (
	"fmt"

	"prepare/internal/chaos"
	"prepare/internal/control"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/telemetry"
)

// TenantScenario names one tenant of a multi-tenant engine run and the
// scenario its world is built from.
type TenantScenario struct {
	// ID labels the tenant in aggregate output; unique and non-empty.
	ID string
	// Scenario describes the tenant's application, fault, scheme, and
	// timeline. Each tenant gets its own simulator and seeded RNGs.
	Scenario Scenario
}

// EngineOptions configures RunEngine's sharding.
type EngineOptions struct {
	// Shards is the number of concurrently stepped tenant groups;
	// <= 0 uses the worker-pool default. Per-tenant results are
	// bit-identical for any value.
	Shards int
	// Workers bounds the worker pool; <= 0 uses pool.DefaultWorkers().
	Workers int
}

// TenantResult is one tenant's outcome of an engine run.
type TenantResult struct {
	Tenant   string
	Scenario Scenario
	// EvalViolationSeconds / TotalViolationSeconds mirror Result.
	EvalViolationSeconds  int64
	TotalViolationSeconds int64
	Alerts                []control.AlertEvent
	Steps                 []prevent.Step
	// Telemetry is the tenant's metric/event snapshot, nil unless the
	// process-wide registry was enabled when the run started.
	Telemetry *telemetry.Snapshot
	// ChaosEvents is the tenant's fault-injection log (nil when the
	// tenant's chaos plan is disabled).
	ChaosEvents []chaos.Event
}

// EngineResult aggregates a multi-tenant engine run.
type EngineResult struct {
	// Tenants holds per-tenant outcomes in canonical sorted ID order.
	Tenants []TenantResult
	// Alerts / Steps are the engine's merged streams, sorted by
	// (Time, Tenant) — identical for any shard or worker count.
	Alerts []control.TenantAlert
	Steps  []control.TenantStep
	// Stats is the engine's aggregate telemetry.
	Stats control.EngineStats
}

// RunEngine builds one fully isolated simulated world per tenant and
// steps all tenants concurrently on the sharded control engine. Tenants
// run for their own scenario durations; the engine's horizon is the
// longest one. Per-tenant results are bit-identical to running each
// scenario alone with Run, for any shard or worker count.
func RunEngine(tenants []TenantScenario, opts EngineOptions) (EngineResult, error) {
	if len(tenants) == 0 {
		return EngineResult{}, fmt.Errorf("experiment: engine needs at least one tenant")
	}
	var (
		horizon int64
		ts      = make([]control.Tenant, len(tenants))
		scs     = make([]Scenario, len(tenants))
		regs    = make([]*telemetry.Registry, len(tenants))
		chaoses = make([]*chaos.Substrate, len(tenants))
		byID    = make(map[string]int, len(tenants))
	)
	for i, t := range tenants {
		if _, dup := byID[t.ID]; dup {
			return EngineResult{}, fmt.Errorf("experiment: duplicate tenant ID %q", t.ID)
		}
		byID[t.ID] = i
		sc := t.Scenario.withDefaults()
		scs[i] = sc
		w, err := buildWorld(sc)
		if err != nil {
			return EngineResult{}, fmt.Errorf("experiment: tenant %s: %w", t.ID, err)
		}
		regs[i] = newRunRegistry()
		sub, cs, err := wireChaos(sc, w, regs[i])
		if err != nil {
			return EngineResult{}, fmt.Errorf("experiment: tenant %s: %w", t.ID, err)
		}
		chaoses[i] = cs
		ctl, err := control.New(sc.Scheme, sub, w.app, sc.controlConfig(regs[i]))
		if err != nil {
			return EngineResult{}, fmt.Errorf("experiment: tenant %s: %w", t.ID, err)
		}
		world := w
		ts[i] = control.Tenant{
			ID:         t.ID,
			Controller: ctl,
			Advance: func(now simclock.Time) error {
				world.tick(now)
				return nil
			},
			Until: simclock.Time(sc.DurationS),
		}
		if sc.DurationS > horizon {
			horizon = sc.DurationS
		}
	}

	eng, err := control.NewEngine(ts, control.EngineOptions{Shards: opts.Shards, Workers: opts.Workers})
	if err != nil {
		return EngineResult{}, fmt.Errorf("experiment: %w", err)
	}
	if err := eng.Run(simclock.Time(horizon)); err != nil {
		return EngineResult{}, fmt.Errorf("experiment: %w", err)
	}

	res := EngineResult{
		Alerts: eng.Alerts(),
		Steps:  eng.Steps(),
		Stats:  eng.Stats(),
	}
	// Per-tenant outcomes in the engine's canonical order; the parallel
	// scs/regs slices are indexed by input order, so map IDs back.
	for _, id := range eng.Tenants() {
		i := byID[id]
		ctl := eng.Controller(id)
		sc := scs[i]
		log := ctl.SLOLog()
		tr := TenantResult{
			Tenant:                id,
			Scenario:              sc,
			EvalViolationSeconds:  log.ViolationSeconds(simclock.Time(sc.TrainAtS), simclock.Time(sc.DurationS+1)),
			TotalViolationSeconds: log.ViolationSeconds(0, simclock.Time(sc.DurationS+1)),
			Alerts:                ctl.Alerts(),
			Steps:                 ctl.Steps(),
		}
		if chaoses[i] != nil {
			tr.ChaosEvents = chaoses[i].Events()
		}
		if regs[i] != nil {
			snap := regs[i].Snapshot()
			tr.Telemetry = snap
			telemetry.Default().Merge(snap)
		}
		res.Tenants = append(res.Tenants, tr)
	}
	return res, nil
}

// MultiTenant derives n tenant scenarios from a base scenario: each
// tenant gets a stable ID and its own seed, so the tenants' worlds are
// independent but the whole fleet is reproducible.
func MultiTenant(n int, base Scenario) []TenantScenario {
	out := make([]TenantScenario, n)
	for i := range out {
		sc := base
		sc.Seed = base.Seed + int64(i)
		out[i] = TenantScenario{ID: fmt.Sprintf("tenant%02d", i+1), Scenario: sc}
	}
	return out
}
