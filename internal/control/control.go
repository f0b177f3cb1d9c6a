// Package control wires PREPARE's modules into the closed management
// loop of Figure 1 and implements the two baselines of the evaluation:
//
//   - PREPARE: per-VM online anomaly prediction over monitored metrics,
//     k-of-W false alarm filtering, TAN-based cause inference, predictive
//     prevention actuation, and online effectiveness validation.
//   - Reactive intervention: the same cause inference and actuation
//     modules, but triggered only after an SLO violation has already been
//     detected.
//   - Without intervention: monitoring only.
//
// The controller is driven by the experiment runner once per simulated
// second, after the fault injectors and the application have advanced.
package control

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"prepare/internal/columnar"
	"prepare/internal/detector"
	"prepare/internal/infer"
	"prepare/internal/metrics"
	"prepare/internal/monitor"
	"prepare/internal/predict"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// App is the application under management. Both simulated applications
// (System S and RUBiS) implement it.
type App interface {
	// Tick advances the application by one simulated second.
	Tick(now simclock.Time)
	// SLOViolated reports the SLO state after the last tick.
	SLOViolated() bool
	// SLOMetric returns the headline SLO metric (throughput or response
	// time) for trace recording.
	SLOMetric() float64
	// VMIDs lists the application's VMs.
	VMIDs() []substrate.VMID
}

// Scheme selects the anomaly management strategy.
type Scheme int

// The three schemes compared in the paper.
const (
	// SchemeNone performs no intervention.
	SchemeNone Scheme = iota + 1
	// SchemeReactive intervenes only after an SLO violation is detected.
	SchemeReactive
	// SchemePREPARE prevents predicted anomalies before they happen.
	SchemePREPARE
)

// String returns the scheme name as used in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "without-intervention"
	case SchemeReactive:
		return "reactive"
	case SchemePREPARE:
		return "prepare"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Config tunes the control loop.
type Config struct {
	// SamplingIntervalS is the monitoring interval (default 5 s).
	SamplingIntervalS int64
	// LookaheadS is the prediction look-ahead window used for prevention
	// (default 120 s, per the paper).
	LookaheadS int64
	// FilterK / FilterW configure false alarm filtering (default 3 of 4).
	FilterK, FilterW int
	// TrainAtS is the simulated instant at which the per-VM models are
	// trained from the labeled data collected so far (set it after the
	// first fault injection, per the paper's protocol).
	TrainAtS int64
	// ValidationDelayS is the look-ahead window after a prevention action
	// before its effectiveness is validated (default 25 s).
	ValidationDelayS int64
	// AlertScoreMargin is the minimum TAN decision score for a raw
	// predictive alert (default 2.0). Equation (1)'s natural threshold is
	// zero; the margin suppresses marginal hazard-of-recurrence scores
	// that otherwise stream low-confidence alerts during normal phases.
	AlertScoreMargin float64
	// DisableValidation turns off the online effectiveness validation
	// (for the ablation study): prevention actions are fire-and-forget
	// and the next-ranked-metric fallthrough never happens.
	DisableValidation bool
	// RetrainIntervalS periodically retrains the per-VM models with all
	// data collected so far (the paper's models are "periodically updated
	// with new data measurements to adapt to dynamic systems"). Zero
	// disables periodic retraining; the value predictors still update
	// online on every sample either way. With it set, the tan detector
	// retrains from per-VM count tables (O(attrs²·bins²), independent of
	// history length); every other kind refits from the retained series.
	RetrainIntervalS int64
	// TrainWorkers bounds how many per-VM model fits run concurrently
	// during (re)training (0 = the pool default). Per-VM fits are
	// independent and deterministically seeded, so results are identical
	// for any worker count.
	TrainWorkers int
	// HistoryWindowSamples bounds each VM's retained training series to a
	// ring of the most recent samples, capping monitoring memory for
	// long-running loops. Zero keeps full history. Retraining from count
	// tables does not read old samples, but fits from the series see only
	// what the ring still holds — keep the window larger than the
	// training prefix (TrainAtS/SamplingIntervalS) and the validation
	// look-back.
	HistoryWindowSamples int
	// Detector selects the anomaly detector driving the loop (default
	// the paper's supervised Markov+TAN pipeline). Any detector.Spec
	// kind works: tan, kmeans, ewma, zrobust, or an ensemble of them —
	// the loop drives one code path for all of them. kmeans (the
	// paper's Section V extension) trains on unlabeled data,
	// so PREPARE can prevent even the FIRST occurrence of an anomaly
	// class. Parse CLI syntax with detector.ParseSpec.
	Detector detector.Spec
	// Predict configures the per-VM predictors.
	Predict predict.Config
	// Telemetry receives the controller's metrics and trace events.
	// Nil disables instrumentation at zero cost on the loop's hot path.
	Telemetry *telemetry.Registry
	// Prevent configures the actuator.
	Prevent prevent.Config
	// Policy selects scaling-first or migration-only prevention.
	Policy prevent.Policy
	// MonitorNoiseStd / MonitorSeed configure the sampler.
	MonitorNoiseStd float64
	MonitorSeed     int64
	// MonitorResilience tunes the sampler's tolerance of a faulty metric
	// source: carry-forward staleness bounds and stuck-sensor detection.
	MonitorResilience monitor.Resilience
}

func (c Config) withDefaults() Config {
	if c.SamplingIntervalS == 0 {
		c.SamplingIntervalS = monitor.DefaultSamplingInterval
	}
	if c.LookaheadS == 0 {
		c.LookaheadS = 120
	}
	if c.FilterK == 0 {
		c.FilterK = predict.DefaultAlarmK
	}
	if c.FilterW == 0 {
		c.FilterW = predict.DefaultAlarmW
	}
	if c.ValidationDelayS == 0 {
		c.ValidationDelayS = 15
	}
	if c.AlertScoreMargin == 0 {
		c.AlertScoreMargin = 2.0
	}
	if c.Policy == 0 {
		c.Policy = prevent.ScalingFirst
	}
	if c.Detector.IsZero() {
		c.Detector = detector.Spec{Kind: detector.KindTAN}
	}
	c.Predict.SamplingIntervalS = c.SamplingIntervalS
	return c
}

// AlertEvent records one confirmed anomaly alert.
type AlertEvent struct {
	Time      simclock.Time
	VM        substrate.VMID
	Score     float64
	Predicted bool // true for predictive alerts, false for reactive detections
}

// pendingValidation tracks a prevention action awaiting its
// effectiveness check.
type pendingValidation struct {
	step     prevent.Step
	attr     metrics.Attribute
	deadline simclock.Time
	extended bool
}

// vmState is everything the controller tracks for one managed VM. The
// controller keeps one per VM in vmOrder (sorted by ID); VM IDs leave
// the package only in alerts, steps, telemetry events and snapshots.
type vmState struct {
	id substrate.VMID
	// store is the VM's row in the columnar store, which follows the
	// sampler's (app) order rather than vmOrder.
	store int

	// det is the VM's anomaly detector — TAN, unsupervised,
	// forecast-error, or an ensemble — all driven through one code path;
	// filter is its k-of-W false alarm filter.
	det    detector.Detector
	filter *predict.AlarmFilter
	// built is the detector fitVM built for this VM, which later fits
	// train again in place. installDetectors clears it, so a detector
	// installed from outside is replaced, not refit.
	built detector.Detector
	// fitAt records the tick at which det was last fit from the series;
	// on that tick an incremental detector only observes the current row
	// (the fit already counted it) instead of re-counting it via Update.
	fitAt simclock.Time

	// cpu and verdict are this tick's observations: the latest CPU sample
	// (reactive scheme only) and, for an alerting VM, its verdict.
	cpu     float64
	verdict detector.Verdict

	// pending is the prevention action awaiting its effectiveness check
	// (nil when none); attempts is the VM's rung on the ranked-metric
	// ladder.
	pending  *pendingValidation
	attempts int

	// Episode tracking for propagation-aware fault localization (the
	// paper's PAL [13]): anomalies propagate outward from the faulty VM,
	// so the VM whose alert episode started first is the prime suspect.
	episodeOnset, lastAlert simclock.Time
	// lastMigration enforces a cooldown between migrations: each live
	// migration costs seconds of degraded capacity, so immediately
	// re-migrating a VM that was just moved only makes matters worse.
	lastMigration simclock.Time
}

// newVMStates lays out one vmState per VM: store indices follow ids'
// order, the slice is sorted by ID.
func newVMStates(ids []substrate.VMID) []vmState {
	vms := make([]vmState, len(ids))
	for i, id := range ids {
		vms[i] = vmState{id: id, store: i, lastAlert: never, lastMigration: never}
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i].id < vms[j].id })
	return vms
}

// Controller runs one management scheme against one application.
type Controller struct {
	scheme Scheme
	cfg    Config
	sub    substrate.Substrate
	app    App

	sampler *monitor.Sampler
	// store is the struct-of-arrays ring every tick's samples land in
	// (the loop's only sample representation), and fleet the batched
	// window scorer (nil unless the spec has a tan detector or member).
	store  *columnar.Store
	fleet  *predict.Fleet
	sloLog *monitor.SLOLog
	// attrNames is the canonical column-name list shared by every
	// detector build.
	attrNames []string
	planner   *prevent.Planner
	validator prevent.Validator

	trained bool
	// nextRetrainAt is the deadline of the next periodic retrain. A
	// deadline (rather than a modulo on the current second) fires on the
	// first sampling tick at or after it, so retraining happens even when
	// the sampling interval does not divide the retrain interval. Zero
	// means unscheduled (models installed from outside): the next
	// sampling tick schedules it one interval out.
	nextRetrainAt simclock.Time
	// rowScratch is the reusable per-tick row buffer: rows are consumed
	// synchronously within a tick (predictors copy what they retain), so
	// one buffer serves every VM without per-sample allocation.
	rowScratch []float64
	// fitBufs holds one training worker's row buffers each, refilled
	// from the series ring for every VM that worker fits.
	fitBufs []fitBuf

	// vms is every managed VM's state, in vmOrder.
	vms []vmState
	// confirmed is observe's reusable list of this tick's
	// filter-confirmed VMs, as ascending indices into vms.
	confirmed []int
	steps     []prevent.Step
	alerts    []AlertEvent

	// workload distinguishes external workload changes from internal
	// faults: simultaneous change points on every component mean the
	// cause is the workload, and every alerting VM should be acted upon
	// rather than just the earliest-onset one. Indexed like the store.
	workload *infer.WorkloadDetector

	// violatedStreak counts consecutive violated sampling ticks, used to
	// debounce the reactive baseline's busiest-VM fallback.
	violatedStreak int

	// tel is the telemetry wiring (all instruments nil when disabled).
	tel instruments
}

// New builds a controller for the scheme over the application. The
// substrate may be the cloudsim adapter, a trace-replay source, or any
// other implementation of the three control-loop arrows.
func New(scheme Scheme, sub substrate.Substrate, app App, cfg Config) (*Controller, error) {
	if sub == nil || app == nil {
		return nil, errors.New("control: substrate and app are required")
	}
	if scheme != SchemeNone && scheme != SchemeReactive && scheme != SchemePREPARE {
		return nil, fmt.Errorf("control: unsupported scheme %d", scheme)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Detector.Validate(); err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	vms := app.VMIDs()
	sampler, err := monitor.NewSampler(sub, vms, monitor.Config{
		NoiseStd:      cfg.MonitorNoiseStd,
		Seed:          cfg.MonitorSeed,
		Telemetry:     cfg.Telemetry,
		Resilience:    cfg.MonitorResilience,
		WindowSamples: cfg.HistoryWindowSamples,
	})
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	planner, err := prevent.NewPlanner(sub, cfg.Policy, cfg.Prevent)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	store, err := columnar.New(len(vms), 4)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	wd, err := infer.NewWorkloadDetector(len(vms), 24, 4*cfg.SamplingIntervalS)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	c := &Controller{
		scheme:     scheme,
		cfg:        cfg,
		sub:        sub,
		app:        app,
		sampler:    sampler,
		store:      store,
		sloLog:     &monitor.SLOLog{},
		attrNames:  predict.AttributeNames(),
		planner:    planner,
		rowScratch: make([]float64, metrics.NumAttributes),
		vms:        newVMStates(vms),
		workload:   wd,
		tel:        newInstruments(cfg.Telemetry),
	}
	if cfg.Detector.Kind == detector.KindTAN || slices.Contains(cfg.Detector.Members, detector.KindTAN) {
		c.fleet = predict.NewFleet()
	}
	return c, nil
}

// Scheme returns the controller's scheme.
func (c *Controller) Scheme() Scheme { return c.scheme }

// DetectorSpec returns the resolved detector specification driving the
// loop (after defaulting).
func (c *Controller) DetectorSpec() detector.Spec { return c.cfg.Detector }

// SLOLog returns the recorded SLO state log.
func (c *Controller) SLOLog() *monitor.SLOLog { return c.sloLog }

// Sampler exposes the monitoring module (for trace-driven analyses).
func (c *Controller) Sampler() *monitor.Sampler { return c.sampler }

// Steps returns the prevention actions executed so far.
func (c *Controller) Steps() []prevent.Step { return append([]prevent.Step{}, c.steps...) }

// Alerts returns the confirmed alerts raised so far.
func (c *Controller) Alerts() []AlertEvent { return append([]AlertEvent{}, c.alerts...) }

// StepCount returns the number of executed prevention steps so far.
func (c *Controller) StepCount() int { return len(c.steps) }

// StepsSince returns a copy of the executed steps from index from on;
// incremental consumers (the ingest server's publish stage) drain new
// steps without copying the whole history. Out-of-range indexes clamp.
func (c *Controller) StepsSince(from int) []prevent.Step { return since(c.steps, from) }

// AlertCount returns the number of confirmed alerts so far.
func (c *Controller) AlertCount() int { return len(c.alerts) }

// AlertsSince returns a copy of the confirmed alerts from index from
// on. Out-of-range indexes clamp.
func (c *Controller) AlertsSince(from int) []AlertEvent { return since(c.alerts, from) }

// since copies s from index from on, or returns nil when that is empty.
func since[T any](s []T, from int) []T {
	if from = max(from, 0); from >= len(s) {
		return nil
	}
	return append([]T(nil), s[from:]...)
}

// Trained reports whether the per-VM models have been trained.
func (c *Controller) Trained() bool { return c.trained }

// OnTick advances the management loop by one simulated second. Call it
// after the fault schedule and application have ticked. A sampling tick
// runs in three phases: observe feeds the detectors and filters, decide
// turns what they saw into a Plan, and apply carries it out.
func (c *Controller) OnTick(now simclock.Time) error {
	violated := c.app.SLOViolated()
	if err := c.sloLog.Record(now, violated); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	if violated {
		c.tel.sloViolatedSeconds.Inc()
	}
	c.sampler.Advance(now)

	if now.Seconds()%c.cfg.SamplingIntervalS != 0 {
		return nil
	}
	label := metrics.LabelNormal
	if violated {
		label = metrics.LabelAbnormal
	}
	if err := c.sampler.CollectColumnar(now, label, c.store); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	// Track inbound traffic for workload-change inference.
	for i := range c.vms {
		if err := c.workload.Offer(now, i, c.store.Latest(i, metrics.NetIn)); err != nil {
			return fmt.Errorf("control: %w", err)
		}
	}
	if c.scheme == SchemeNone {
		return nil
	}

	if !c.trained && now.Seconds() >= c.cfg.TrainAtS && c.cfg.TrainAtS > 0 {
		if err := c.train(now); err != nil {
			return fmt.Errorf("control: train: %w", err)
		}
	} else if c.trained && c.cfg.RetrainIntervalS > 0 && !now.Before(c.nextRetrainAt) {
		// Periodic model update with everything accumulated so far, so
		// anomalies first seen after the initial training become
		// predictable on their next recurrence. The deadline fires on the
		// first sampling tick at or past it (a modulo check would never
		// fire when the sampling interval does not divide the retrain
		// interval) and then advances by a full interval. Installed
		// models are not refit on their first tick: the series behind
		// them may hold a single sample.
		if c.nextRetrainAt != 0 {
			if err := c.retrain(now); err != nil {
				return fmt.Errorf("control: retrain: %w", err)
			}
		}
		c.nextRetrainAt = now.Add(c.cfg.RetrainIntervalS)
	}
	if !c.trained {
		return nil
	}

	workloadChange, err := c.observe(now, label, violated)
	if err != nil {
		return err
	}
	return c.apply(now, decide(c.cfg, c.scheme, now, c.vms, c.confirmed, c.violatedStreak, workloadChange))
}

// observe feeds the new samples to the per-VM detectors and runs each
// VM's k-of-W filter vote, listing the confirmed VMs in c.confirmed with
// their full verdicts, and reports whether the workload changed. The
// vote stays here, next to Score, because a TAN adapter scoring through
// the shared fleet scorer materializes its Verdict from the arena while
// the arena still holds its window; taken any later, the Verdict would
// re-run the window pass.
func (c *Controller) observe(now simclock.Time, label metrics.Label, violated bool) (bool, error) {
	c.confirmed = c.confirmed[:0]
	row := c.rowScratch
	fold := c.incrementalTraining()
	for i := range c.vms {
		v := &c.vms[i]
		c.store.RowInto(v.store, row)
		if fold && v.fitAt != now {
			// Incremental training: one Update advances the value-
			// prediction chains AND folds the labeled row into the TAN
			// sufficient statistics. Samples the sampler refused to record
			// (past the staleness budget) become unlabeled so a frozen
			// sensor cannot teach the classifier a flat line, mirroring
			// what refits from the series would have seen.
			lbl := label
			if !c.sampler.Recording(v.id) {
				lbl = metrics.LabelUnknown
			}
			if err := v.det.Update(row, lbl); err != nil {
				return false, fmt.Errorf("control: update %s: %w", v.id, err)
			}
		} else if err := v.det.Observe(row); err != nil {
			// A model fit this tick already counted the current row from
			// the series, and a model that is never refit from counts
			// needs none: either only observes.
			return false, fmt.Errorf("control: observe %s: %w", v.id, err)
		}
		switch c.scheme {
		case SchemePREPARE:
			dec, err := v.det.Score(c.cfg.LookaheadS)
			if err != nil {
				return false, fmt.Errorf("control: predict %s: %w", v.id, err)
			}
			conf := v.filter.Offer(dec.Abnormal)
			if dec.Abnormal {
				c.tel.onRawAlert(now.Seconds(), string(v.id), dec.Score, conf)
			}
			if !conf {
				continue
			}
			if v.verdict, err = v.det.Verdict(); err != nil {
				return false, fmt.Errorf("control: predict %s: %w", v.id, err)
			}
		case SchemeReactive:
			// Reactive: only act once the SLO violation is observed; the
			// per-VM detectors locate the faulty VM. The same k-of-W
			// false alarm filter applies (the baseline shares PREPARE's
			// cause inference modules), so a single bad sample does not
			// trigger an intervention.
			verdict, err := v.det.Current(row)
			if err != nil {
				return false, fmt.Errorf("control: evaluate %s: %w", v.id, err)
			}
			v.cpu = c.store.Latest(v.store, metrics.CPUTotal)
			raw := violated && verdict.Abnormal
			conf := v.filter.Offer(raw)
			if raw {
				c.tel.onRawAlert(now.Seconds(), string(v.id), verdict.Score, conf)
			}
			if !conf {
				continue
			}
			v.verdict = verdict
		}
		c.confirmed = append(c.confirmed, i)
	}

	if violated {
		c.violatedStreak++
	} else {
		c.violatedStreak = 0
	}
	return c.workload.WorkloadChange(now), nil
}

// apply carries out a plan in a fixed order — record the alerts,
// resolve the due validations, then act on every target with no action
// in flight (the paper triggers one prevention per alerted VM, e.g.,
// memory scaling on one and CPU scaling on another) — so the telemetry
// event stream follows from the plan alone.
func (c *Controller) apply(now simclock.Time, p Plan) error {
	if p.Busiest >= 0 {
		// observe already scored this row, so classifying it again
		// cannot fail.
		v := &c.vms[p.Busiest]
		c.store.RowInto(v.store, c.rowScratch)
		verdict, err := v.det.Current(c.rowScratch)
		if err != nil {
			return fmt.Errorf("control: evaluate %s: %w", v.id, err)
		}
		v.verdict = verdict
	}
	for _, i := range p.Alerts {
		c.recordAlert(now, &c.vms[i])
	}
	for _, i := range p.Dropped {
		c.vms[i].pending = nil
	}
	for _, val := range p.Validations {
		c.resolveValidation(now, &c.vms[val.VM], val.AlertsStopped)
	}
	for _, i := range p.Alerts {
		c.vms[i].lastAlert = now
	}
	for _, i := range p.Onsets {
		c.vms[i].episodeOnset = now
	}
	for _, i := range p.Targets {
		if v := &c.vms[i]; v.pending == nil {
			if err := c.actuate(now, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordAlert appends one confirmed alert to the log and emits its
// event.
func (c *Controller) recordAlert(now simclock.Time, v *vmState) {
	c.alerts = append(c.alerts, AlertEvent{
		Time:      now,
		VM:        v.id,
		Score:     v.verdict.Score,
		Predicted: c.scheme == SchemePREPARE,
	})
	c.tel.confirmedAlerts.Inc()
	if c.tel.reg != nil {
		predicted := 0.0
		if c.scheme == SchemePREPARE {
			predicted = 1
		}
		c.tel.reg.Emit(now.Seconds(), string(v.id), telemetry.StageControl, telemetry.KindAlertRaised, "",
			telemetry.F("score", v.verdict.Score), telemetry.F("predicted", predicted))
	}
}

// actuate executes the next prevention step for one confirmed faulty VM.
func (c *Controller) actuate(now simclock.Time, v *vmState) error {
	migrating, err := c.sub.Migrating(v.id)
	if err != nil {
		// An inventory lookup failing — transiently or otherwise — must
		// not abort the whole management tick: log the skipped actuation
		// and let the next confirmed alert try again.
		c.tel.degradedSkips.Inc()
		if c.tel.reg != nil {
			c.tel.reg.Emit(now.Seconds(), string(v.id), telemetry.StageControl, telemetry.KindDegraded,
				"migrating-lookup: "+err.Error())
		}
		return nil
	}
	if migrating {
		return nil // an action is already in flight
	}
	const migrationCooldownS = 90
	if c.planner.Policy() == prevent.MigrationOnly && now.Sub(v.lastMigration) < migrationCooldownS {
		return nil // just moved; give the new placement time to work
	}

	diag, err := infer.Diagnose(v.id, v.verdict)
	if err != nil {
		return fmt.Errorf("control: diagnose: %w", err)
	}
	c.tel.pinpoints.Inc()
	if top, ok := diag.TopAttribute(); ok {
		strength := 0.0
		if len(diag.Strengths) > 0 {
			strength = diag.Strengths[0].L
		}
		c.tel.attribution.Set(strength)
		if c.tel.reg != nil {
			c.tel.reg.Emit(now.Seconds(), string(v.id), telemetry.StageInfer, telemetry.KindCauseRanked,
				top.String(), telemetry.F("strength", strength), telemetry.F("ranked", float64(len(diag.Ranked))))
		}
	}
	step, err := c.planner.Prevent(now, diag, v.attempts)
	if err != nil {
		switch {
		case errors.Is(err, prevent.ErrBackoff):
			// A transient actuator failure was absorbed; the same
			// attempt retries after the planner's sim-clock backoff.
			// Keep the attempt ladder and episode untouched.
			c.tel.retryBackoffs.Inc()
			if c.tel.reg != nil {
				c.tel.reg.Emit(now.Seconds(), string(v.id), telemetry.StagePrevent,
					telemetry.KindRetryScheduled, "", telemetry.F("attempt", float64(v.attempts)))
			}
		case errors.Is(err, prevent.ErrSaturated):
			// This resource is at its cap: move to the next option.
			v.attempts++
		default:
			// Out of options for this VM: push its alert episode to the
			// back of the queue so localization gives other alerting VMs
			// a turn, and restart its ladder for the next episode.
			v.attempts = 0
			v.episodeOnset = now
		}
		return nil
	}
	c.steps = append(c.steps, step)
	c.recordStep(now, step)

	attr := metrics.CPUTotal
	if top, ok := diag.TopAttribute(); ok {
		attr = top
	}
	delay := c.cfg.ValidationDelayS
	if step.Kind == substrate.ActionMigrate {
		// The memory allocation does not change until the migration
		// completes, so reading it after the step still reflects the
		// amount of state being copied.
		if alloc, aerr := c.sub.Allocation(v.id); aerr == nil {
			delay += c.sub.MigrationSeconds(alloc.MemMB)
		}
		v.lastMigration = now
	}
	v.pending = &pendingValidation{step: step, attr: attr, deadline: now.Add(delay)}
	return nil
}

// recordStep counts an executed prevention step and emits its event.
func (c *Controller) recordStep(now simclock.Time, step prevent.Step) {
	kind := telemetry.KindScalingApplied
	switch step.Kind {
	case substrate.ActionScaleCPU:
		c.tel.scaleCPU.Inc()
	case substrate.ActionScaleMem:
		c.tel.scaleMem.Inc()
	case substrate.ActionMigrate:
		c.tel.migrations.Inc()
		kind = telemetry.KindMigration
	}
	if c.tel.reg != nil {
		c.tel.reg.Emit(now.Seconds(), string(step.VM), telemetry.StagePrevent, kind, step.Detail)
	}
}

// resolveValidation applies the look-back/look-ahead effectiveness check
// to one VM's pending action.
func (c *Controller) resolveValidation(now simclock.Time, v *vmState, alertsStopped bool) {
	p := v.pending
	series, err := c.sampler.Series(v.id)
	if err != nil {
		v.pending = nil
		return
	}
	lookBack := p.step.Time.Add(-c.cfg.ValidationDelayS)
	before := series.Window(lookBack, p.step.Time)
	after := series.Window(p.step.Time.Add(1), now.Add(1))

	switch c.validator.Validate(before, after, p.attr, alertsStopped) {
	case prevent.Effective:
		c.tel.valEffective.Inc()
		v.attempts = 0
		v.filter.Reset()
		v.pending = nil
	case prevent.Ineffective:
		// Try the next ranked metric on the next confirmed alert.
		c.tel.valIneffective.Inc()
		c.rollback(now, v)
	case prevent.Inconclusive:
		if !p.extended {
			p.extended = true
			p.deadline = now.Add(c.cfg.ValidationDelayS)
			return
		}
		c.tel.valInconclusive.Inc()
		c.rollback(now, v)
	}
}

// rollback gives up on the VM's pending action — it did not fix the
// anomaly — and advances the ladder to the next ranked metric,
// emitting the validation-rollback trace record.
func (c *Controller) rollback(now simclock.Time, v *vmState) {
	if c.tel.reg != nil {
		c.tel.reg.Emit(now.Seconds(), string(v.id), telemetry.StagePrevent, telemetry.KindValidationRollback,
			v.pending.step.Detail, telemetry.F("attempt_next", float64(v.attempts+1)))
	}
	v.attempts++
	v.pending = nil
}
