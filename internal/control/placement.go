package control

import (
	"errors"
	"fmt"

	"prepare/internal/metrics"
	"prepare/internal/placement"
	"prepare/internal/predict"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// PlacementMode selects how migration targets are chosen.
type PlacementMode int

// The placement modes.
const (
	// PlacementNaive delegates target selection to the substrate (the
	// simulator's first-fit), exactly as before predictive placement
	// existed. This is the zero value.
	PlacementNaive PlacementMode = iota
	// PlacementPredictive scores candidate hosts by their forecast
	// future load through the placement engine and actuates migrations
	// with an explicit target, falling back to naive selection whenever
	// the engine has no answer.
	PlacementPredictive
)

// String names the mode as accepted by PlacementModeByName.
func (m PlacementMode) String() string {
	switch m {
	case PlacementNaive:
		return "naive"
	case PlacementPredictive:
		return "predictive"
	default:
		return fmt.Sprintf("PlacementMode(%d)", int(m))
	}
}

// PlacementModeByName parses the CLI spelling of a placement mode.
func PlacementModeByName(name string) (PlacementMode, error) {
	switch name {
	case "", "naive":
		return PlacementNaive, nil
	case "predictive":
		return PlacementPredictive, nil
	default:
		return 0, fmt.Errorf("control: unknown placement mode %q (want naive or predictive)", name)
	}
}

// engineSelector adapts the placement engine to prevent's TargetSelector
// contract: every migration attempt (including backed-off retries)
// re-scores candidates against the live inventory, and outcomes feed the
// placement.* counters.
type engineSelector struct {
	engine   *placement.Engine
	inv      *placement.Inventory
	targeted substrate.TargetedActuator

	requests  *telemetry.Counter
	decisions *telemetry.Counter
	successes *telemetry.Counter
	fallbacks *telemetry.Counter
	retries   *telemetry.Counter
}

// newEngineSelector builds the predictive selector over the substrate,
// verifying it supports both halves of the contract (a placement
// inventory to score against and explicit-target migration to actuate
// the choice).
func newEngineSelector(sub substrate.Substrate, cfg Config) (*engineSelector, *placement.Inventory, error) {
	prov, okInv := sub.(placement.InventoryProvider)
	targeted, okMig := sub.(substrate.TargetedActuator)
	if !okInv || !okMig {
		return nil, nil, errors.New("predictive placement requires a substrate with a placement inventory and explicit-target migration")
	}
	inv := prov.PlacementInventory()
	if inv == nil {
		return nil, nil, errors.New("substrate returned no placement inventory")
	}
	engine, err := placement.NewEngine(inv, placement.Config{
		PreemptionDepth: cfg.PlacementPreemptionDepth,
		Telemetry:       cfg.Telemetry,
	})
	if err != nil {
		return nil, nil, err
	}
	reg := cfg.Telemetry
	return &engineSelector{
		engine:    engine,
		inv:       inv,
		targeted:  targeted,
		requests:  reg.Counter("placement.requests"),
		decisions: reg.Counter("placement.decisions"),
		successes: reg.Counter("placement.successes"),
		fallbacks: reg.Counter("placement.fallbacks"),
		retries:   reg.Counter("placement.retries"),
	}, inv, nil
}

var _ prevent.TargetSelector = (*engineSelector)(nil)

// SelectTarget answers one migration attempt. A damaged inventory or an
// infeasible request yields no answer (naive fallback). A preemption
// plan cannot be granted synchronously — live migrations only free
// capacity when they complete — so the victim evictions are started and
// this attempt falls back; a later attempt (or episode) finds the
// cleared target directly.
func (s *engineSelector) SelectTarget(now simclock.Time, id substrate.VMID, desiredCPUPct, desiredMemMB float64) (substrate.HostID, bool) {
	s.requests.Inc()
	src, _ := s.inv.HostOf(id)
	dec, err := s.engine.Decide(placement.Request{
		VM:     id,
		CPUPct: desiredCPUPct,
		MemMB:  desiredMemMB,
		Source: src,
	})
	if err != nil {
		return "", false
	}
	if len(dec.Preempted) > 0 {
		for _, m := range dec.Preempted {
			if err := s.targeted.MigrateTo(now, m.VM, m.To, m.CPUPct, m.MemMB); err != nil {
				break
			}
		}
		return "", false
	}
	return dec.Target, true
}

// ReportOutcome records what the planner did with the selected target.
// Invariants: requests == successes + fallbacks + retries, and
// decisions == successes + fallbacks (retries re-enter SelectTarget).
func (s *engineSelector) ReportOutcome(_ substrate.VMID, o prevent.SelectionOutcome) {
	switch o {
	case prevent.OutcomeSuccess:
		s.successes.Inc()
		s.decisions.Inc()
	case prevent.OutcomeFallback:
		s.fallbacks.Inc()
		s.decisions.Inc()
	case prevent.OutcomeRetry:
		s.retries.Inc()
	}
}

// pushForecasts refreshes the inventory's per-VM CPU forecasts from the
// trained value predictors: the predicted peak CPU utilization over the
// look-ahead window, converted from percent-of-allocation to absolute
// percentage points via the VM's current allocation. VMs whose detector
// exposes no TAN predictor (unsupervised, ensembles) keep the
// inventory's allocation-pessimistic default.
func (c *Controller) pushForecasts() {
	if c.placeInv == nil || c.scheme != SchemePREPARE || c.placeInv.Damaged() != nil {
		return
	}
	col := metrics.CPUTotal.Index()
	for _, v := range c.vms {
		p, ok := predict.TANPredictor(v.det)
		if !ok {
			continue
		}
		utilPct, ok := p.ForecastValueMax(col, c.cfg.LookaheadS)
		if !ok {
			continue
		}
		allocCPU, _, ok := c.placeInv.VMAlloc(v.id)
		if !ok {
			continue
		}
		_ = c.placeInv.SetForecast(v.id, utilPct/100*allocCPU)
	}
}
