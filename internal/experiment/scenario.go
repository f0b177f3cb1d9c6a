// Package experiment reproduces the paper's evaluation: scenario runs
// (application × fault × prevention policy × management scheme) measuring
// SLO violation time, sampled SLO metric traces, trace-driven prediction
// accuracy sweeps, and the overhead microbenchmark inputs — one driver
// per table and figure.
package experiment

import (
	"fmt"

	"prepare/internal/apps/rubis"
	"prepare/internal/apps/streamsys"
	"prepare/internal/chaos"
	"prepare/internal/cloudsim"
	"prepare/internal/control"
	"prepare/internal/detector"
	"prepare/internal/faults"
	"prepare/internal/metrics"
	"prepare/internal/monitor"
	"prepare/internal/predict"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
	"prepare/internal/workload"
)

// AppKind selects the application under test.
type AppKind int

// The two case-study applications.
const (
	SystemS AppKind = iota + 1
	RUBiS
)

// String returns the application name.
func (a AppKind) String() string {
	switch a {
	case SystemS:
		return "systems"
	case RUBiS:
		return "rubis"
	default:
		return fmt.Sprintf("app(%d)", int(a))
	}
}

// Scenario describes one experiment run. The default timeline follows
// the paper: runs last 1200-1800 s with two ~300 s injections of the
// same fault; the model learns the anomaly during the first injection
// and predicts the second.
type Scenario struct {
	App    AppKind
	Fault  faults.Kind
	Scheme control.Scheme
	Policy prevent.Policy
	Seed   int64

	// DurationS is the total run length (default 1500).
	DurationS int64
	// Inject1/Inject2 are the two injection windows (defaults
	// [200,500) and [900,1200)).
	Inject1, Inject2 [2]int64
	// TrainAtS is when the models are trained (default 600).
	TrainAtS int64
	// SamplingIntervalS is the monitoring interval (default 5).
	SamplingIntervalS int64
	// LookaheadS is the control-loop prediction window (default 120).
	LookaheadS int64
	// FilterK/FilterW configure alarm filtering (defaults 3/4).
	FilterK, FilterW int
	// RetrainIntervalS periodically retrains the models with the data
	// accumulated since training (0 disables periodic retraining).
	RetrainIntervalS int64
	// HistoryWindowSamples bounds the retained sample history to the
	// most recent sampling ticks (0 keeps full history; see
	// control.Config.HistoryWindowSamples).
	HistoryWindowSamples int
	// Predict overrides predictor options (order, bins, naive).
	Predict predict.Config
	// DisableValidation turns off the effectiveness validation (for the
	// ablation study).
	DisableValidation bool
	// Detector selects the anomaly detector driving the control loop
	// (zero = the paper's supervised Markov+TAN pipeline): tan, kmeans,
	// ewma, zrobust, or an ensemble spec. The unsupervised kmeans kind
	// (the Section V extension) combined with SkipFirstInjection
	// demonstrates first-occurrence prevention. Parse
	// CLI syntax with detector.ParseSpec.
	Detector detector.Spec
	// SkipFirstInjection drops the training-time fault injection: the
	// models train on clean data only and the (single) injection in the
	// Inject2 window is the anomaly's FIRST occurrence.
	SkipFirstInjection bool
	// LeakRateMBps overrides the memory-leak growth rate (0 = default:
	// 1.0 MB/s for System S, 1.5 MB/s for RUBiS). Faster leaks manifest
	// more suddenly and shrink the predictor's lead time.
	LeakRateMBps float64
	// HogCPUPct overrides the CPU hog's consumption in percentage points
	// (0 = default: 60 for System S, 90 for RUBiS).
	HogCPUPct float64
	// SurgePeakFactor overrides the bottleneck surge's peak multiplier
	// (0 = default: 1.5 for System S, 2.3 for RUBiS).
	SurgePeakFactor float64
	// Chaos injects deterministic substrate faults (dropped/stale/stuck/
	// NaN samples, transient actuator errors, migration stalls) between
	// the control loop and the simulator. The zero Plan disables
	// injection; a zero Chaos.Seed derives one from Seed so engine
	// tenants get distinct but reproducible fault schedules.
	Chaos chaos.Plan
}

func (s Scenario) withDefaults() Scenario {
	if s.DurationS == 0 {
		s.DurationS = 1500
	}
	if s.Inject1 == [2]int64{} {
		s.Inject1 = [2]int64{200, 500}
	}
	if s.Inject2 == [2]int64{} {
		s.Inject2 = [2]int64{900, 1200}
	}
	if s.TrainAtS == 0 {
		s.TrainAtS = 600
	}
	if s.SamplingIntervalS == 0 {
		s.SamplingIntervalS = 5
	}
	if s.LookaheadS == 0 {
		s.LookaheadS = 120
	}
	if s.Policy == 0 {
		s.Policy = prevent.ScalingFirst
	}
	if s.SkipFirstInjection {
		// Push the first injection window past the end of the run so it
		// never fires: the Inject2 occurrence is the anomaly's first.
		s.Inject1 = [2]int64{s.DurationS + 10, s.DurationS + 11}
	}
	if s.Chaos.Enabled() && s.Chaos.Seed == 0 {
		s.Chaos.Seed = s.Seed + 5000
	}
	return s
}

// monitorResilience picks the sampler hardening for the scenario: chaos
// runs get stuck-sensor detection on top of the default carry-forward
// bounds; clean runs keep the zero value so established results are
// byte-identical to earlier revisions.
func (s Scenario) monitorResilience() monitor.Resilience {
	if !s.Chaos.Enabled() {
		return monitor.Resilience{}
	}
	return monitor.Resilience{StuckThreshold: 3}
}

// wireChaos interposes the scenario's chaos decorator between the
// control loop and the world's substrate. The returned *chaos.Substrate
// is nil when the plan is disabled.
func wireChaos(sc Scenario, w *world, reg *telemetry.Registry) (substrate.Substrate, *chaos.Substrate, error) {
	if !sc.Chaos.Enabled() {
		return w.sub, nil, nil
	}
	cs, err := chaos.New(w.sub, sc.Chaos)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: %w", err)
	}
	cs.SetTelemetry(reg)
	return cs, cs, nil
}

// TracePoint is one second of the SLO metric trace.
type TracePoint struct {
	Time   simclock.Time
	Metric float64
	// Violated is the SLO state at the instant.
	Violated bool
}

// Result captures everything a run produces.
type Result struct {
	Scenario Scenario
	// EvalViolationSeconds is the SLO violation time within the
	// evaluation window [TrainAtS, DurationS) — the paper's headline
	// comparison metric (the training window is identical across
	// schemes, so it is excluded).
	EvalViolationSeconds int64
	// TotalViolationSeconds covers the whole run.
	TotalViolationSeconds int64
	// Steps are the prevention actions executed.
	Steps []prevent.Step
	// Alerts are the confirmed anomaly alerts.
	Alerts []control.AlertEvent
	// Trace is the per-second SLO metric over the run.
	Trace []TracePoint
	// Dataset holds each VM's labeled samples (for trace-driven
	// analyses).
	Dataset map[substrate.VMID][]metrics.Sample
	// VMOrder lists the application VMs in canonical order.
	VMOrder []substrate.VMID
	// FaultTarget is the VM the fault was injected into ("" for
	// bottleneck).
	FaultTarget substrate.VMID
	// Telemetry is the run's metric/event snapshot, nil unless the
	// process-wide telemetry registry was enabled (telemetry.Enable or
	// prepare.EnableTelemetry) when the run started.
	Telemetry *telemetry.Snapshot
	// ChaosEvents is the chronological fault-injection log (nil when the
	// scenario's chaos plan is disabled).
	ChaosEvents []chaos.Event
}

// world bundles one fully-assembled simulated deployment: the cluster,
// its substrate adapter (the only view the control loop gets), the
// application, and the fault schedule.
type world struct {
	cluster  *cloudsim.Cluster
	sub      *cloudsim.Substrate
	app      control.App
	schedule *faults.Schedule
	target   substrate.VMID
}

// tick advances the world by one simulated second (faults, application,
// then infrastructure), the order the controller expects.
func (w *world) tick(now simclock.Time) {
	w.schedule.Apply(now)
	w.app.Tick(now)
	w.cluster.Tick(now)
}

// buildWorld assembles the scenario's deployment.
func buildWorld(sc Scenario) (*world, error) {
	cluster := cloudsim.NewCluster()
	var (
		app      control.App
		schedule *faults.Schedule
		target   substrate.VMID
		err      error
	)
	switch sc.App {
	case SystemS:
		app, schedule, target, err = buildSystemS(cluster, sc)
	case RUBiS:
		app, schedule, target, err = buildRUBiS(cluster, sc)
	default:
		return nil, fmt.Errorf("experiment: unsupported app %d", sc.App)
	}
	if err != nil {
		return nil, err
	}
	sub, err := cloudsim.NewSubstrate(cluster, app.VMIDs())
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return &world{cluster: cluster, sub: sub, app: app, schedule: schedule, target: target}, nil
}

// controlConfig is the control-loop configuration of a (defaulted)
// scenario, reporting to reg.
func (sc Scenario) controlConfig(reg *telemetry.Registry) control.Config {
	return control.Config{
		SamplingIntervalS: sc.SamplingIntervalS,
		LookaheadS:        sc.LookaheadS,
		FilterK:           sc.FilterK,
		FilterW:           sc.FilterW,
		TrainAtS:          sc.TrainAtS,
		RetrainIntervalS:  sc.RetrainIntervalS,
		Policy:            sc.Policy,
		Predict:           sc.Predict,
		MonitorSeed:       sc.Seed + 1000,
		DisableValidation: sc.DisableValidation,
		Detector:          sc.Detector,
		Telemetry:         reg,
		MonitorResilience: sc.monitorResilience(),

		HistoryWindowSamples: sc.HistoryWindowSamples,
	}
}

// Run executes the scenario.
func Run(sc Scenario) (Result, error) {
	sc = sc.withDefaults()

	w, err := buildWorld(sc)
	if err != nil {
		return Result{}, err
	}
	app := w.app

	reg := newRunRegistry()
	sub, cs, err := wireChaos(sc, w, reg)
	if err != nil {
		return Result{}, err
	}
	ctl, err := control.New(sc.Scheme, sub, app, sc.controlConfig(reg))
	if err != nil {
		return Result{}, fmt.Errorf("experiment: %w", err)
	}

	trace := make([]TracePoint, 0, sc.DurationS)
	for t := int64(1); t <= sc.DurationS; t++ {
		now := simclock.Time(t)
		w.tick(now)
		if err := ctl.OnTick(now); err != nil {
			return Result{}, fmt.Errorf("experiment: tick %d: %w", t, err)
		}
		trace = append(trace, TracePoint{
			Time:     now,
			Metric:   app.SLOMetric(),
			Violated: app.SLOViolated(),
		})
	}

	log := ctl.SLOLog()
	res := Result{
		Scenario:              sc,
		EvalViolationSeconds:  log.ViolationSeconds(simclock.Time(sc.TrainAtS), simclock.Time(sc.DurationS+1)),
		TotalViolationSeconds: log.ViolationSeconds(0, simclock.Time(sc.DurationS+1)),
		Steps:                 ctl.Steps(),
		Alerts:                ctl.Alerts(),
		Trace:                 trace,
		Dataset:               ctl.Dataset(),
		VMOrder:               app.VMIDs(),
		FaultTarget:           w.target,
	}
	if cs != nil {
		res.ChaosEvents = cs.Events()
	}
	finishRun(reg, &res)
	return res, nil
}

// buildSystemS assembles the seven-PE System S deployment: one host per
// PE (headroom for scaling) plus one idle host as a migration target.
func buildSystemS(cluster *cloudsim.Cluster, sc Scenario) (control.App, *faults.Schedule, substrate.VMID, error) {
	hostIDs := make([]cloudsim.HostID, 0, 7)
	for i := 0; i < 7; i++ {
		id := cloudsim.HostID(fmt.Sprintf("host%d", i+1))
		if _, err := cluster.AddDefaultHost(id); err != nil {
			return nil, nil, "", err
		}
		hostIDs = append(hostIDs, id)
	}
	if _, err := cluster.AddDefaultHost("spare"); err != nil {
		return nil, nil, "", err
	}

	base, err := workload.NewJittered(workload.Constant{Value: 25}, 0.04, int(sc.DurationS)+10, sc.Seed)
	if err != nil {
		return nil, nil, "", err
	}
	leakRate := sc.LeakRateMBps
	if leakRate == 0 {
		leakRate = 1.0
	}
	hogCPU := sc.HogCPUPct
	if hogCPU == 0 {
		hogCPU = 60
	}
	surgeFactor := sc.SurgePeakFactor
	if surgeFactor == 0 {
		surgeFactor = 1.5
	}
	var input workload.Generator = base
	var schedule *faults.Schedule
	var target substrate.VMID

	if sc.Fault == faults.Bottleneck {
		s1 := &faults.Surge{
			Inner: base, PeakFactor: surgeFactor,
			Start: simclock.Time(sc.Inject1[0]), End: simclock.Time(sc.Inject1[1]),
		}
		s2 := &faults.Surge{
			Inner: s1, PeakFactor: surgeFactor,
			Start: simclock.Time(sc.Inject2[0]), End: simclock.Time(sc.Inject2[1]),
		}
		input = s2
		schedule = faults.NewSchedule(s1, s2)
		target = "vm-pe6"
	}

	app, err := streamsys.New(cluster, streamsys.Config{Input: input, HostIDs: hostIDs})
	if err != nil {
		return nil, nil, "", err
	}

	switch sc.Fault {
	case faults.MemoryLeak:
		target = "vm-pe3"
		i1, err := faults.NewLeak(cluster, target, leakRate,
			simclock.Time(sc.Inject1[0]), simclock.Time(sc.Inject1[1]))
		if err != nil {
			return nil, nil, "", err
		}
		i2, err := faults.NewLeak(cluster, target, leakRate,
			simclock.Time(sc.Inject2[0]), simclock.Time(sc.Inject2[1]))
		if err != nil {
			return nil, nil, "", err
		}
		schedule = faults.NewSchedule(i1, i2)
	case faults.CPUHog:
		target = "vm-pe6"
		i1, err := faults.NewHog(cluster, target, hogCPU,
			simclock.Time(sc.Inject1[0]), simclock.Time(sc.Inject1[1]))
		if err != nil {
			return nil, nil, "", err
		}
		i2, err := faults.NewHog(cluster, target, hogCPU,
			simclock.Time(sc.Inject2[0]), simclock.Time(sc.Inject2[1]))
		if err != nil {
			return nil, nil, "", err
		}
		schedule = faults.NewSchedule(i1, i2)
	case faults.Bottleneck:
		// Already built around the workload above.
	default:
		return nil, nil, "", fmt.Errorf("experiment: unsupported fault %v", sc.Fault)
	}
	return app, schedule, target, nil
}

// buildRUBiS assembles the four-VM RUBiS deployment (one host per tier
// plus a spare) driven by the NASA-like workload.
func buildRUBiS(cluster *cloudsim.Cluster, sc Scenario) (control.App, *faults.Schedule, substrate.VMID, error) {
	hostIDs := make([]cloudsim.HostID, 0, 4)
	for i := 0; i < 4; i++ {
		id := cloudsim.HostID(fmt.Sprintf("host%d", i+1))
		if _, err := cluster.AddDefaultHost(id); err != nil {
			return nil, nil, "", err
		}
		hostIDs = append(hostIDs, id)
	}
	if _, err := cluster.AddDefaultHost("spare"); err != nil {
		return nil, nil, "", err
	}

	nasaCfg := workload.DefaultNASAConfig(sc.Seed)
	nasaCfg.Horizon = int(sc.DurationS) + 10
	base, err := workload.NewNASATrace(nasaCfg)
	if err != nil {
		return nil, nil, "", err
	}
	leakRate := sc.LeakRateMBps
	if leakRate == 0 {
		leakRate = 1.5
	}
	hogCPU := sc.HogCPUPct
	if hogCPU == 0 {
		hogCPU = 90
	}
	surgeFactor := sc.SurgePeakFactor
	if surgeFactor == 0 {
		surgeFactor = 2.3
	}
	var input workload.Generator = base
	var schedule *faults.Schedule
	target := substrate.VMID("vm-db")

	if sc.Fault == faults.Bottleneck {
		s1 := &faults.Surge{
			Inner: base, PeakFactor: surgeFactor,
			Start: simclock.Time(sc.Inject1[0]), End: simclock.Time(sc.Inject1[1]),
		}
		s2 := &faults.Surge{
			Inner: s1, PeakFactor: surgeFactor,
			Start: simclock.Time(sc.Inject2[0]), End: simclock.Time(sc.Inject2[1]),
		}
		input = s2
		schedule = faults.NewSchedule(s1, s2)
	}

	app, err := rubis.New(cluster, rubis.Config{Input: input, HostIDs: hostIDs})
	if err != nil {
		return nil, nil, "", err
	}

	switch sc.Fault {
	case faults.MemoryLeak:
		i1, err := faults.NewLeak(cluster, target, leakRate,
			simclock.Time(sc.Inject1[0]), simclock.Time(sc.Inject1[1]))
		if err != nil {
			return nil, nil, "", err
		}
		i2, err := faults.NewLeak(cluster, target, leakRate,
			simclock.Time(sc.Inject2[0]), simclock.Time(sc.Inject2[1]))
		if err != nil {
			return nil, nil, "", err
		}
		schedule = faults.NewSchedule(i1, i2)
	case faults.CPUHog:
		i1, err := faults.NewHog(cluster, target, hogCPU,
			simclock.Time(sc.Inject1[0]), simclock.Time(sc.Inject1[1]))
		if err != nil {
			return nil, nil, "", err
		}
		i2, err := faults.NewHog(cluster, target, hogCPU,
			simclock.Time(sc.Inject2[0]), simclock.Time(sc.Inject2[1]))
		if err != nil {
			return nil, nil, "", err
		}
		schedule = faults.NewSchedule(i1, i2)
	case faults.Bottleneck:
		// Already built around the workload above.
	default:
		return nil, nil, "", fmt.Errorf("experiment: unsupported fault %v", sc.Fault)
	}
	return app, schedule, target, nil
}
