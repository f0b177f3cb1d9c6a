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
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"prepare/internal/columnar"
	"prepare/internal/detector"
	"prepare/internal/infer"
	"prepare/internal/metrics"
	"prepare/internal/monitor"
	"prepare/internal/placement"
	"prepare/internal/pool"
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
	// kind works: tan, kmeans, zscore, ewma, zrobust, or an ensemble of
	// them — the loop drives one code path for all of them. kmeans and
	// zscore (the paper's Section V extension) train on unlabeled data,
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
	// Placement selects how migration targets are chosen. The zero value
	// (PlacementNaive) keeps the substrate's own first-fit choice — the
	// pre-existing behavior, byte for byte. PlacementPredictive scores
	// candidate hosts by their forecast future load through the
	// placement engine; it requires a substrate that provides a
	// placement inventory and explicit-target migration.
	Placement PlacementMode
	// PlacementPreemptionDepth bounds evict-and-cascade preemption when
	// predictive placement finds no direct fit (0 = preemption off,
	// the default: victim migrations are asynchronous in every real
	// substrate, so cascades only pay off for long-lived pressure).
	PlacementPreemptionDepth int
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
	diag     infer.Diagnosis
	deadline simclock.Time
	extended bool
}

// Controller runs one management scheme against one application.
type Controller struct {
	scheme Scheme
	cfg    Config
	sub    substrate.Substrate
	app    App

	sampler *monitor.Sampler
	// store is the struct-of-arrays ring every tick's samples land in
	// (the loop's only sample representation), storeIdx each VM's index
	// in it, and fleet the batched window scorer (nil unless pure tan).
	store    *columnar.Store
	storeIdx map[substrate.VMID]int
	fleet    *predict.Fleet
	sloLog   *monitor.SLOLog
	// detectors holds the per-VM anomaly detectors — TAN, unsupervised,
	// forecast-error, or ensembles — all driven through one code path.
	detectors map[substrate.VMID]detector.Detector
	filters   map[substrate.VMID]*predict.AlarmFilter
	// attrNames is the canonical column-name list shared by every
	// detector build.
	attrNames []string
	planner   *prevent.Planner
	validator prevent.Validator

	trained bool
	// nextRetrainAt is the deadline of the next periodic retrain. A
	// deadline (rather than a modulo on the current second) fires on the
	// first sampling tick at or after it, so retraining happens even when
	// the sampling interval does not divide the retrain interval.
	nextRetrainAt simclock.Time
	// fitAt records the tick at which each VM's model was last fit from
	// the series; on that tick an incremental detector only observes the
	// current row (the fit already counted it) instead of re-counting it
	// via Update.
	fitAt map[substrate.VMID]simclock.Time
	// rowScratch is the reusable per-tick row buffer: rows are consumed
	// synchronously within a tick (predictors copy what they retain), so
	// one buffer serves every VM without per-sample allocation.
	rowScratch []float64
	// fitBufs holds one training worker's row buffers each, refilled
	// from the series ring for every VM that worker fits.
	fitBufs []fitBuf
	// built holds, in vmOrder order, the detector fitVM built for each
	// VM, which later fits train again in place. InstallDetectors clears
	// it, so a detector installed from outside is replaced, not refit.
	built []detector.Detector

	pending  map[substrate.VMID]*pendingValidation
	attempts map[substrate.VMID]int
	steps    []prevent.Step
	alerts   []AlertEvent
	vmOrder  []substrate.VMID

	// Episode tracking for propagation-aware fault localization (the
	// paper's PAL [13]): anomalies propagate outward from the faulty VM,
	// so the VM whose alert episode started first is the prime suspect.
	episodeOnset map[substrate.VMID]simclock.Time
	lastAlert    map[substrate.VMID]simclock.Time

	// workload distinguishes external workload changes from internal
	// faults: simultaneous change points on every component mean the
	// cause is the workload, and every alerting VM should be acted upon
	// rather than just the earliest-onset one.
	workload *infer.WorkloadDetector

	// violatedStreak counts consecutive violated sampling ticks, used to
	// debounce the reactive baseline's busiest-VM fallback.
	violatedStreak int

	// lastMigration enforces a per-VM cooldown between migrations: each
	// live migration costs seconds of degraded capacity, so immediately
	// re-migrating a VM that was just moved only makes matters worse.
	lastMigration map[substrate.VMID]simclock.Time

	// placeInv is the substrate's placement-inventory mirror, non-nil
	// only under PlacementPredictive; the controller pushes per-VM CPU
	// forecasts into it on every sampling tick so the engine scores
	// hosts by predicted future load.
	placeInv *placement.Inventory

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
	var placeInv *placement.Inventory
	if cfg.Placement == PlacementPredictive {
		sel, inv, err := newEngineSelector(sub, cfg)
		if err != nil {
			return nil, fmt.Errorf("control: %w", err)
		}
		// The selector must be installed before the planner is built so
		// NewPlanner can verify the substrate supports explicit targets.
		cfg.Prevent.Selector = sel
		placeInv = inv
	}
	planner, err := prevent.NewPlanner(sub, cfg.Policy, cfg.Prevent)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	store, err := columnar.New(len(vms), 4)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	// The store's VM order is the sampler's (the app order it was given);
	// the controller iterates in sorted vmOrder, so keep an index map.
	storeIdx := make(map[substrate.VMID]int, len(vms))
	for i, id := range vms {
		storeIdx[id] = i
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	wd, err := infer.NewWorkloadDetector(vms, 24, 4*cfg.SamplingIntervalS)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	c := &Controller{
		scheme:        scheme,
		cfg:           cfg,
		sub:           sub,
		app:           app,
		sampler:       sampler,
		store:         store,
		storeIdx:      storeIdx,
		sloLog:        &monitor.SLOLog{},
		detectors:     make(map[substrate.VMID]detector.Detector, len(vms)),
		filters:       make(map[substrate.VMID]*predict.AlarmFilter, len(vms)),
		attrNames:     predict.AttributeNames(),
		planner:       planner,
		fitAt:         make(map[substrate.VMID]simclock.Time, len(vms)),
		rowScratch:    make([]float64, metrics.NumAttributes),
		built:         make([]detector.Detector, len(vms)),
		pending:       make(map[substrate.VMID]*pendingValidation, len(vms)),
		attempts:      make(map[substrate.VMID]int, len(vms)),
		vmOrder:       vms,
		episodeOnset:  make(map[substrate.VMID]simclock.Time, len(vms)),
		lastAlert:     make(map[substrate.VMID]simclock.Time, len(vms)),
		workload:      wd,
		lastMigration: make(map[substrate.VMID]simclock.Time, len(vms)),
		placeInv:      placeInv,
		tel:           newInstruments(cfg.Telemetry),
	}
	if cfg.Detector.Kind == detector.KindTAN {
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
func (c *Controller) Steps() []prevent.Step {
	out := make([]prevent.Step, len(c.steps))
	copy(out, c.steps)
	return out
}

// Alerts returns the confirmed alerts raised so far.
func (c *Controller) Alerts() []AlertEvent {
	out := make([]AlertEvent, len(c.alerts))
	copy(out, c.alerts)
	return out
}

// StepCount returns the number of executed prevention steps so far.
func (c *Controller) StepCount() int { return len(c.steps) }

// StepsSince returns a copy of the executed steps from index from on;
// incremental consumers (the ingest server's publish stage) drain new
// steps without copying the whole history. Out-of-range indexes clamp.
func (c *Controller) StepsSince(from int) []prevent.Step {
	if from < 0 {
		from = 0
	}
	if from >= len(c.steps) {
		return nil
	}
	out := make([]prevent.Step, len(c.steps)-from)
	copy(out, c.steps[from:])
	return out
}

// AlertCount returns the number of confirmed alerts so far.
func (c *Controller) AlertCount() int { return len(c.alerts) }

// AlertsSince returns a copy of the confirmed alerts from index from
// on. Out-of-range indexes clamp.
func (c *Controller) AlertsSince(from int) []AlertEvent {
	if from < 0 {
		from = 0
	}
	if from >= len(c.alerts) {
		return nil
	}
	out := make([]AlertEvent, len(c.alerts)-from)
	copy(out, c.alerts[from:])
	return out
}

// Trained reports whether the per-VM models have been trained.
func (c *Controller) Trained() bool { return c.trained }

// OnTick advances the management loop by one simulated second. Call it
// after the fault schedule and application have ticked.
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
	for _, id := range c.vmOrder {
		// Track inbound traffic for workload-change inference.
		if err := c.workload.Offer(now, id, c.store.Latest(c.storeIdx[id], metrics.NetIn)); err != nil {
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
		// interval) and then advances by a full interval.
		if err := c.retrain(now); err != nil {
			return fmt.Errorf("control: retrain: %w", err)
		}
		c.nextRetrainAt = now.Add(c.cfg.RetrainIntervalS)
	}
	if !c.trained {
		return nil
	}

	// Feed the new samples to the per-VM detectors and collect the
	// filter-confirmed verdicts. The TAN adapter routes window scoring
	// through the fleet scorer (materializing full verdicts only for
	// confirmed VMs); every other detector kind scores per VM.
	confirmed := make(map[substrate.VMID]detector.Verdict)
	row := c.rowScratch
	for _, id := range c.vmOrder {
		c.store.RowInto(c.storeIdx[id], row)
		lbl := label
		d := c.detectors[id]
		if d.Incremental() && c.fitAt[id] != now {
			// Incremental training: one Update advances the value-
			// prediction chains AND folds the labeled row into the TAN
			// sufficient statistics. Samples the sampler refused to record
			// (past the staleness budget) become unlabeled so a frozen
			// sensor cannot teach the classifier a flat line, mirroring
			// what batch refits from the series would have seen.
			if !c.sampler.Recording(id) {
				lbl = metrics.LabelUnknown
			}
			if err := d.Update(row, lbl); err != nil {
				return fmt.Errorf("control: update %s: %w", id, err)
			}
		} else if err := d.Observe(row); err != nil {
			// A model (re)fit this tick already counted the current row
			// from the series; it only observes, exactly like batch
			// training has always done.
			return fmt.Errorf("control: observe %s: %w", id, err)
		}
		switch c.scheme {
		case SchemePREPARE:
			dec, err := d.Score(c.cfg.LookaheadS)
			if err != nil {
				return fmt.Errorf("control: predict %s: %w", id, err)
			}
			conf := c.filters[id].Offer(dec.Abnormal)
			if dec.Abnormal {
				c.tel.onRawAlert(now.Seconds(), string(id), dec.Score, conf)
			}
			if conf {
				verdict, err := d.Verdict()
				if err != nil {
					return fmt.Errorf("control: predict %s: %w", id, err)
				}
				confirmed[id] = verdict
			}
		case SchemeReactive:
			// Reactive: only act once the SLO violation is observed; the
			// per-VM detectors locate the faulty VM. The same k-of-W
			// false alarm filter applies (the baseline shares PREPARE's
			// cause inference modules), so a single bad sample does not
			// trigger an intervention.
			verdict, err := d.Current(row)
			if err != nil {
				return fmt.Errorf("control: evaluate %s: %w", id, err)
			}
			raw := violated && verdict.Abnormal
			conf := c.filters[id].Offer(raw)
			if raw {
				c.tel.onRawAlert(now.Seconds(), string(id), verdict.Score, conf)
			}
			if conf {
				confirmed[id] = verdict
			}
		}
	}

	// With the value predictors freshly advanced, refresh the placement
	// inventory's per-VM CPU forecasts so any migration decided below
	// scores candidate hosts by predicted future load.
	c.pushForecasts()

	if violated {
		c.violatedStreak++
	} else {
		c.violatedStreak = 0
	}

	if c.scheme == SchemeReactive && len(confirmed) == 0 && c.violatedStreak >= c.cfg.FilterK {
		// The violation is real and persistent, but no per-VM classifier
		// fired (e.g., the symptom manifests only in the SLO): blame the
		// busiest VM so the reactive baseline still intervenes, as its
		// real counterpart would.
		if id, verdict, ok := c.busiestVM(); ok {
			confirmed[id] = verdict
		}
	}

	// Record confirmed alerts in canonical VM order so the alert log
	// (and the emitted telemetry events) are deterministic.
	for _, id := range c.vmOrder {
		v, ok := confirmed[id]
		if !ok {
			continue
		}
		c.alerts = append(c.alerts, AlertEvent{
			Time:      now,
			VM:        id,
			Score:     v.Score,
			Predicted: c.scheme == SchemePREPARE,
		})
		c.tel.confirmedAlerts.Inc()
		if c.tel.reg != nil {
			predicted := 0.0
			if c.scheme == SchemePREPARE {
				predicted = 1
			}
			c.tel.reg.Emit(now.Seconds(), string(id), telemetry.StageControl, telemetry.KindAlertRaised, "",
				telemetry.F("score", v.Score), telemetry.F("predicted", predicted))
		}
	}

	// Resolve any due validations, then act on every confirmed faulty VM
	// that has no action in flight (the paper triggers one prevention per
	// alerted VM, e.g., memory scaling on one and CPU scaling on another).
	for _, id := range c.vmOrder {
		p, ok := c.pending[id]
		if !ok || now.Before(p.deadline) {
			continue
		}
		if c.cfg.DisableValidation {
			// Ablation mode: drop the pending action unexamined; the
			// attempt ladder never advances past the first choice.
			delete(c.pending, id)
			continue
		}
		_, stillAlerting := confirmed[id]
		c.resolveValidation(now, id, !stillAlerting && !violated)
	}

	for _, id := range c.targets(now, confirmed) {
		if _, busy := c.pending[id]; busy {
			continue
		}
		if err := c.actuate(now, id, confirmed[id]); err != nil {
			return err
		}
	}
	return nil
}

// targets applies propagation-aware fault localization: update alert
// episodes and return the confirmed VMs whose episode onset is within one
// sampling interval of the earliest onset (downstream victims alert later
// than the faulty VM, so they are filtered out; near-simultaneous onsets
// are all acted upon, as in the paper's two-VM example).
func (c *Controller) targets(now simclock.Time, confirmed map[substrate.VMID]detector.Verdict) []substrate.VMID {
	gap := 2 * c.cfg.SamplingIntervalS
	for _, id := range c.vmOrder {
		if _, ok := confirmed[id]; !ok {
			continue
		}
		if last, ok := c.lastAlert[id]; !ok || now.Sub(last) > gap {
			c.episodeOnset[id] = now
		}
		c.lastAlert[id] = now
	}
	var earliest simclock.Time
	found := false
	for id := range confirmed {
		onset := c.episodeOnset[id]
		if !found || onset.Before(earliest) {
			earliest = onset
			found = true
		}
	}
	if !found {
		return nil
	}
	// An external workload change hits every component at once; in that
	// case all alerting VMs need relief, not just the earliest one.
	// Similarly, once a real SLO violation persists, onset ordering stops
	// mattering — every alerting VM gets help (the predictive priority
	// only applies while the violation is still preventable).
	workloadChange := c.workload.WorkloadChange(now) ||
		c.violatedStreak >= c.cfg.FilterK
	var out []substrate.VMID
	for _, id := range c.vmOrder {
		if _, ok := confirmed[id]; !ok {
			continue
		}
		if workloadChange || c.episodeOnset[id].Sub(earliest) <= c.cfg.SamplingIntervalS {
			out = append(out, id)
		}
	}
	return out
}

// busiestVM builds a fallback diagnosis for the reactive baseline when no
// detector fired: pick the VM with the highest CPU utilization sample and
// classify its current row.
func (c *Controller) busiestVM() (substrate.VMID, detector.Verdict, bool) {
	var bestID substrate.VMID
	best := -1.0
	for _, id := range c.vmOrder {
		if u := c.store.Latest(c.storeIdx[id], metrics.CPUTotal); u > best {
			best = u
			bestID = id
		}
	}
	if best < 0 {
		return "", detector.Verdict{}, false
	}
	c.store.RowInto(c.storeIdx[bestID], c.rowScratch)
	verdict, err := c.detectors[bestID].Current(c.rowScratch)
	if err != nil {
		return "", detector.Verdict{}, false
	}
	return bestID, verdict, true
}

// degrade records a skipped or deferred piece of a management step: the
// substrate failed underneath the loop, the loop logs it and keeps
// going rather than aborting the tick.
func (c *Controller) degrade(now simclock.Time, id substrate.VMID, op string, err error) {
	c.tel.degradedSkips.Inc()
	if c.tel.reg != nil {
		c.tel.reg.Emit(now.Seconds(), string(id), telemetry.StageControl, telemetry.KindDegraded,
			op+": "+err.Error())
	}
}

// actuate executes the next prevention step for one confirmed faulty VM.
func (c *Controller) actuate(now simclock.Time, target substrate.VMID, verdict detector.Verdict) error {
	migrating, err := c.sub.Migrating(target)
	if err != nil {
		// An inventory lookup failing — transiently or otherwise — must
		// not abort the whole management tick: skip this VM's actuation
		// and let the next confirmed alert try again.
		c.degrade(now, target, "migrating-lookup", err)
		return nil
	}
	if migrating {
		return nil // an action is already in flight
	}
	const migrationCooldownS = 90
	if c.planner.Policy() == prevent.MigrationOnly {
		if last, ok := c.lastMigration[target]; ok && now.Sub(last) < migrationCooldownS {
			return nil // just moved; give the new placement time to work
		}
	}

	diag, err := infer.Diagnose(target, verdict)
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
			c.tel.reg.Emit(now.Seconds(), string(target), telemetry.StageInfer, telemetry.KindCauseRanked,
				top.String(), telemetry.F("strength", strength), telemetry.F("ranked", float64(len(diag.Ranked))))
		}
	}
	step, err := c.planner.Prevent(now, diag, c.attempts[target])
	if err != nil {
		switch {
		case errors.Is(err, prevent.ErrBackoff):
			// A transient actuator failure was absorbed; the same
			// attempt retries after the planner's sim-clock backoff.
			// Keep the attempt ladder and episode untouched.
			c.tel.retryBackoffs.Inc()
			if c.tel.reg != nil {
				c.tel.reg.Emit(now.Seconds(), string(target), telemetry.StagePrevent,
					telemetry.KindRetryScheduled, "", telemetry.F("attempt", float64(c.attempts[target])))
			}
		case errors.Is(err, prevent.ErrSaturated):
			// This resource is at its cap: move to the next option.
			c.attempts[target]++
		default:
			// Out of options for this VM: push its alert episode to the
			// back of the queue so localization gives other alerting VMs
			// a turn, and restart its ladder for the next episode.
			c.attempts[target] = 0
			c.episodeOnset[target] = now
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
		if alloc, aerr := c.sub.Allocation(target); aerr == nil {
			delay += c.sub.MigrationSeconds(alloc.MemMB)
		}
		c.lastMigration[target] = now
	}
	c.pending[target] = &pendingValidation{
		step:     step,
		attr:     attr,
		diag:     diag,
		deadline: now.Add(delay),
	}
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
func (c *Controller) resolveValidation(now simclock.Time, id substrate.VMID, alertsStopped bool) {
	p := c.pending[id]
	series, err := c.sampler.Series(p.step.VM)
	if err != nil {
		delete(c.pending, id)
		return
	}
	lookBack := p.step.Time.Add(-c.cfg.ValidationDelayS)
	before := series.Window(lookBack, p.step.Time)
	after := series.Window(p.step.Time.Add(1), now.Add(1))

	switch c.validator.Validate(before, after, p.attr, alertsStopped) {
	case prevent.Effective:
		c.tel.valEffective.Inc()
		c.attempts[p.step.VM] = 0
		if f, ok := c.filters[p.step.VM]; ok {
			f.Reset()
		}
		delete(c.pending, id)
	case prevent.Ineffective:
		// Try the next ranked metric on the next confirmed alert.
		c.tel.valIneffective.Inc()
		c.rollbackEvent(now, p)
		c.attempts[p.step.VM]++
		delete(c.pending, id)
	case prevent.Inconclusive:
		if !p.extended {
			p.extended = true
			p.deadline = now.Add(c.cfg.ValidationDelayS)
			return
		}
		c.tel.valInconclusive.Inc()
		c.rollbackEvent(now, p)
		c.attempts[p.step.VM]++
		delete(c.pending, id)
	}
}

// rollbackEvent emits the validation-rollback trace record: the action
// did not fix the anomaly, so the ladder advances to the next ranked
// metric.
func (c *Controller) rollbackEvent(now simclock.Time, p *pendingValidation) {
	if c.tel.reg == nil {
		return
	}
	c.tel.reg.Emit(now.Seconds(), string(p.step.VM), telemetry.StagePrevent, telemetry.KindValidationRollback,
		p.step.Detail, telemetry.F("attempt_next", float64(c.attempts[p.step.VM]+1)))
}

// train fits one predictor (and alarm filter) per VM from the collected
// labeled series. Following the paper, fault localization decides which
// VMs' samples are actually trained as "abnormal": a sample keeps its
// abnormal label only if the VM itself deviates from its own fault-free
// baseline at that instant (at least two attributes beyond 3.5 sigma).
// Without this gating, every VM's model would learn the application-level
// violation windows — including VMs whose metrics carry no fault signal —
// and then raise persistent false alarms on recurring workload patterns.
func (c *Controller) train(now simclock.Time) error {
	dets := make([]detector.Detector, len(c.vmOrder))
	// Per-VM fits are independent and deterministically seeded, so they
	// fan out across the worker pool; each goroutine writes only its own
	// slot and the results are installed in canonical VM order below.
	runner := pool.Runner{Workers: c.cfg.TrainWorkers}
	c.growFitBufs(runner.Size(len(c.vmOrder)))
	err := runner.ForEachWorker(context.Background(), len(c.vmOrder), func(_ context.Context, w, i int) error {
		d, err := c.fitVM(i, &c.fitBufs[w])
		if err != nil {
			return err
		}
		dets[i] = d
		return nil
	})
	if err != nil {
		return err
	}
	for i, id := range c.vmOrder {
		c.detectors[id] = dets[i]
		f, err := predict.NewAlarmFilter(c.cfg.FilterK, c.cfg.FilterW)
		if err != nil {
			return err
		}
		c.filters[id] = f
		c.fitAt[id] = now
	}
	c.trained = true
	c.tel.trainings.Inc()
	c.nextRetrainAt = now.Add(c.cfg.RetrainIntervalS)
	return nil
}

// detectorOptions assembles the per-VM adapter options from the
// controller's configuration. The fleet is nil unless the spec is pure
// tan.
func (c *Controller) detectorOptions(id substrate.VMID) predict.DetectorOptions {
	return predict.DetectorOptions{
		Names:           c.attrNames,
		Config:          c.cfg.Predict,
		Margin:          c.cfg.AlertScoreMargin,
		LookbackSamples: int(c.cfg.LookaheadS / c.cfg.SamplingIntervalS),
		Incremental:     c.incrementalTraining(),
		Seed:            c.cfg.MonitorSeed,
		Fleet:           c.fleet,
		Instruments:     c.tel.predict,
		Telemetry:       c.cfg.Telemetry,
		TelemetryScope:  string(id),
	}
}

// fitBuf is one training worker's rows and labels (see Series.RowsInto).
type fitBuf struct {
	backing []float64
	rows    [][]float64
	labels  []metrics.Label
}

// growFitBufs makes sure every one of n training workers has a buffer.
func (c *Controller) growFitBufs(n int) {
	if len(c.fitBufs) < n {
		c.fitBufs = append(c.fitBufs, make([]fitBuf, n-len(c.fitBufs))...)
	}
}

// fitVM fits the i-th VM's detector from its retained series, read
// straight from the ring into buf. The detector adapter applies the
// kind-appropriate training protocol: anomaly-onset relabeling plus a
// batch TAN fit, incremental sufficient statistics, or an unlabeled
// outlier/forecast fit. A detector is built only when the VM's built
// slot is empty (first training, or after InstallDetectors); otherwise
// the one there is refit in place. Train replaces all model state and
// keeps neither rows nor labels, so buf is free for the worker's next VM.
func (c *Controller) fitVM(i int, buf *fitBuf) (detector.Detector, error) {
	id := c.vmOrder[i]
	series, err := c.sampler.Series(id)
	if err != nil {
		return nil, err
	}
	buf.backing, buf.rows, buf.labels = series.RowsInto(buf.backing, buf.rows, buf.labels)
	if c.built[i] == nil {
		if c.built[i], err = predict.NewDetector(c.cfg.Detector, c.detectorOptions(id)); err != nil {
			return nil, err
		}
	}
	if err := c.built[i].Train(buf.rows, buf.labels); err != nil {
		return nil, fmt.Errorf("train %s: %w", id, err)
	}
	return c.built[i], nil
}

// incrementalTraining reports whether this configuration maintains
// per-VM sufficient statistics and retrains from them. Only the pure
// supervised TAN detector has a count-table form, and only periodic
// retraining ever consumes the statistics; everything else
// (unsupervised, forecast-error, ensembles, train-once) fits from the
// retained series.
func (c *Controller) incrementalTraining() bool {
	return c.cfg.Detector.Kind == detector.KindTAN && c.cfg.RetrainIntervalS > 0
}

// retrain performs one periodic model update. Detectors without a
// count-table form refit from the retained series (O(history)). The tan
// detector rebuilds each classifier from its accumulated count table
// (O(attrs²·bins²), independent of history length) and refits from the
// series only to self-heal predictors that carry no incremental state
// (e.g. restored from an older snapshot). Alarm filters restart fresh
// either way.
func (c *Controller) retrain(now simclock.Time) error {
	if !c.incrementalTraining() {
		defer c.tel.retrainBatch.ObserveSince(time.Now())
		return c.train(now)
	}
	defer c.tel.retrainIncremental.ObserveSince(time.Now())
	healed := make([]detector.Detector, len(c.vmOrder))
	runner := pool.Runner{Workers: c.cfg.TrainWorkers}
	c.growFitBufs(runner.Size(len(c.vmOrder)))
	err := runner.ForEachWorker(context.Background(), len(c.vmOrder), func(_ context.Context, w, i int) error {
		id := c.vmOrder[i]
		if d := c.detectors[id]; d != nil && d.Incremental() {
			if err := d.Retrain(); err != nil {
				return fmt.Errorf("retrain %s: %w", id, err)
			}
			return nil
		}
		d, err := c.fitVM(i, &c.fitBufs[w])
		if err != nil {
			return err
		}
		healed[i] = d
		return nil
	})
	if err != nil {
		return err
	}
	for i, id := range c.vmOrder {
		if healed[i] != nil {
			c.detectors[id] = healed[i]
			c.fitAt[id] = now
		}
		f, err := predict.NewAlarmFilter(c.cfg.FilterK, c.cfg.FilterW)
		if err != nil {
			return err
		}
		c.filters[id] = f
	}
	c.tel.trainings.Inc()
	return nil
}
