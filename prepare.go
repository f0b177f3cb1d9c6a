// Package prepare is a from-scratch Go reproduction of PREPARE
// ("PREdictive Performance Anomaly pREvention for Virtualized Cloud
// Systems", Tan et al., ICDCS 2012): an integrated predict-diagnose-
// prevent control loop for virtualized clouds.
//
// The library contains every system the paper describes or depends on:
//
//   - A Xen-like cloud simulator (hosts, VMs, elastic CPU/memory scaling,
//     live migration with realistic latency).
//   - Two simulated case-study applications: an IBM System S-like stream
//     processing dataflow (7 PEs / 7 VMs) and a RUBiS-like three-tier
//     auction service (4 VMs), each with the paper's SLO definitions.
//   - The paper's three fault injectors: memory leak, CPU hog, and
//     bottleneck (gradual workload overload).
//   - The anomaly prediction models: simple and 2-dependent Markov chain
//     attribute value predictors plus the Tree-Augmented Naive Bayes
//     (TAN) classifier with Equation (1) scoring and Equation (2)
//     attribute attribution.
//   - Online anomaly cause inference: k-of-W false alarm filtering,
//     propagation-aware faulty-VM localization, ranked metric
//     attribution, and workload-change detection.
//   - Prevention actuation: elastic resource scaling first, live VM
//     migration as fallback, with look-back/look-ahead effectiveness
//     validation.
//   - A full experiment harness reproducing every table and figure of
//     the paper's evaluation.
//
// # Quick start
//
// Run one of the paper's experiment cells end to end:
//
//	res, err := prepare.Run(prepare.Scenario{
//		App:    prepare.RUBiS,
//		Fault:  prepare.MemoryLeak,
//		Scheme: prepare.SchemePREPARE,
//		Seed:   1,
//	})
//	if err != nil { ... }
//	fmt.Printf("SLO violation time: %ds\n", res.EvalViolationSeconds)
//
// Or use the prediction models directly on your own metric streams via
// NewPredictor, Train, Observe and PredictWindow.
//
// Everything is deterministic for a fixed seed: simulations use an
// integer-second simulated clock and seeded randomness throughout.
//
// # Parallelism
//
// Multi-run sweeps (Repeat, the figure generators, accuracy sweeps,
// Table1, and the RunAll batch API) fan out over a bounded worker pool
// sized by SetParallelism (default runtime.GOMAXPROCS(0)). Because
// every scenario run is fully self-contained — its own simulator,
// seeded RNGs, and simulated clock — results are bit-identical for any
// worker count, including 1; parallelism changes only wall-clock time.
package prepare

import (
	"prepare/internal/control"
	"prepare/internal/experiment"
	"prepare/internal/faults"
	"prepare/internal/metrics"
	"prepare/internal/monitor"
	"prepare/internal/predict"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// Core experiment types.
type (
	// Scenario describes one experiment run (application, fault,
	// management scheme, prevention policy, timeline).
	Scenario = experiment.Scenario
	// Result captures everything a run produces: SLO violation time,
	// prevention steps, alerts, the per-second SLO metric trace, and the
	// labeled monitoring dataset.
	Result = experiment.Result
	// TracePoint is one second of a run's SLO metric trace.
	TracePoint = experiment.TracePoint
	// Stat is a mean ± standard deviation over repeated runs.
	Stat = experiment.Stat
	// Dataset is labeled per-VM monitoring data for trace-driven
	// prediction accuracy analysis.
	Dataset = experiment.Dataset
	// AccuracyPoint is one (look-ahead, A_T, A_F) measurement.
	AccuracyPoint = experiment.AccuracyPoint
	// AccuracyOptions tunes an accuracy sweep.
	AccuracyOptions = experiment.AccuracyOptions
	// AccuracyCurve is a labeled accuracy sweep line.
	AccuracyCurve = experiment.AccuracyCurve
	// ViolationCell is one bar of the Figure 6/8 comparisons.
	ViolationCell = experiment.ViolationCell
	// TraceSeries is one curve of the Figure 7/9 trace comparisons.
	TraceSeries = experiment.TraceSeries
	// AppKind selects a case-study application.
	AppKind = experiment.AppKind
)

// Management and actuation types.
type (
	// Scheme selects the anomaly management strategy.
	Scheme = control.Scheme
	// Policy selects the prevention actuation strategy.
	Policy = prevent.Policy
	// FaultKind identifies a fault class.
	FaultKind = faults.Kind
	// AlertEvent is one confirmed anomaly alert raised by a controller.
	AlertEvent = control.AlertEvent
	// PreventionStep describes one executed prevention action.
	PreventionStep = prevent.Step
)

// Prediction model types.
type (
	// Predictor is a per-component anomaly prediction model combining
	// Markov value prediction with TAN classification.
	Predictor = predict.Predictor
	// PredictorConfig tunes a predictor (bins, Markov order, classifier).
	PredictorConfig = predict.Config
	// Verdict is one anomaly prediction outcome.
	Verdict = predict.Verdict
	// AlarmFilter is the paper's k-of-W false alarm filter.
	AlarmFilter = predict.AlarmFilter
	// Confusion accumulates prediction outcomes and yields A_T and A_F.
	Confusion = predict.Confusion
	// Label classifies a monitoring sample (normal/abnormal/unknown).
	Label = metrics.Label
	// Attribute identifies one of the 13 monitored system metrics.
	Attribute = metrics.Attribute
	// Sample is one labeled monitoring observation of a VM.
	Sample = metrics.Sample
	// SimTime is a simulated instant (whole seconds).
	SimTime = simclock.Time
	// VMID identifies a virtual machine.
	VMID = substrate.VMID
	// SLOLog records an application's SLO state over time.
	SLOLog = monitor.SLOLog
)

// Applications under test.
const (
	// SystemS is the IBM System S-like stream processing application.
	SystemS = experiment.SystemS
	// RUBiS is the three-tier online auction application.
	RUBiS = experiment.RUBiS
)

// Fault classes.
const (
	// MemoryLeak grows a VM's leaked memory linearly while active.
	MemoryLeak = faults.MemoryLeak
	// CPUHog pins a competing CPU-bound process inside the VM.
	CPUHog = faults.CPUHog
	// Bottleneck gradually raises the workload past component capacity.
	Bottleneck = faults.Bottleneck
)

// Management schemes.
const (
	// SchemeNone performs no intervention (the paper's "without
	// intervention" baseline).
	SchemeNone = control.SchemeNone
	// SchemeReactive intervenes only after an SLO violation is detected.
	SchemeReactive = control.SchemeReactive
	// SchemePREPARE prevents predicted anomalies before they happen.
	SchemePREPARE = control.SchemePREPARE
)

// Prevention policies.
const (
	// ScalingFirst scales the pinpointed resource, migrating only when
	// the local host cannot fit the scaled allocation (Figures 6/7).
	ScalingFirst = prevent.ScalingFirst
	// MigrationOnly uses live VM migration as the prevention action
	// (Figures 8/9).
	MigrationOnly = prevent.MigrationOnly
)

// Markov model orders.
const (
	// SimpleMarkov is the first-order value predictor baseline.
	SimpleMarkov = predict.SimpleMarkov
	// TwoDependent is the paper's 2-dependent Markov chain.
	TwoDependent = predict.TwoDependent
)

// Labels.
const (
	// LabelUnknown marks samples not yet correlated with the SLO log.
	LabelUnknown = metrics.LabelUnknown
	// LabelNormal marks samples taken while the SLO was satisfied.
	LabelNormal = metrics.LabelNormal
	// LabelAbnormal marks samples taken while the SLO was violated.
	LabelAbnormal = metrics.LabelAbnormal
)

// Run executes one experiment scenario end to end and returns its result.
func Run(sc Scenario) (Result, error) { return experiment.Run(sc) }

// Repeat runs the scenario with n consecutive seeds and summarizes the
// evaluation-window SLO violation time (the paper's five-repetition
// protocol).
func Repeat(sc Scenario, n int) (Stat, []Result, error) { return experiment.Repeat(sc, n) }

// CollectDataset runs the scenario without intervention and returns its
// labeled monitoring data for trace-driven accuracy analysis.
func CollectDataset(sc Scenario) (Dataset, error) { return experiment.CollectDataset(sc) }

// AccuracySweep measures anomaly prediction accuracy (A_T, A_F) across
// look-ahead windows on a collected dataset.
func AccuracySweep(ds Dataset, lookaheadsS []int64, opts AccuracyOptions) ([]AccuracyPoint, error) {
	return experiment.AccuracySweep(ds, lookaheadsS, opts)
}

// NewPredictor builds an untrained anomaly predictor over the named
// metric columns. Use AttributeNames for the canonical 13 per-VM
// attributes, or supply your own column names for custom metric streams.
func NewPredictor(cfg PredictorConfig, names []string) (*Predictor, error) {
	return predict.New(cfg, names)
}

// NewAlarmFilter builds a k-of-W false alarm filter (the paper uses
// k=3, W=4).
func NewAlarmFilter(k, w int) (*AlarmFilter, error) { return predict.NewAlarmFilter(k, w) }

// AttributeNames returns the canonical names of the 13 monitored per-VM
// attributes, in predictor column order.
func AttributeNames() []string { return predict.AttributeNames() }

// RelabelForTraining applies PREPARE's training-label preparation to one
// component's rows: fault-localization gating plus pre-anomaly window
// extension. The slices are modified in place.
func RelabelForTraining(rows [][]float64, labels []Label, lookbackSamples int) {
	predict.RelabelForTraining(rows, labels, lookbackSamples)
}
