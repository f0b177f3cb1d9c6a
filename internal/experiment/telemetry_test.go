package experiment

import (
	"testing"

	"prepare/internal/control"
	"prepare/internal/faults"
	"prepare/internal/telemetry"
)

// withTelemetry enables process-wide telemetry for one test and
// restores the disabled default (including the model hooks) afterwards.
func withTelemetry(t *testing.T) *telemetry.Registry {
	t.Helper()
	telemetry.Disable() // drop any stale registry so counts start at zero
	reg := telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		UninstallModelHooks()
	})
	return reg
}

func TestRunTelemetryDisabledByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run in -short mode")
	}
	telemetry.Disable()
	res, err := Run(Scenario{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemeNone, Seed: 1,
		DurationS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Error("Result.Telemetry should be nil while telemetry is disabled")
	}
}

// TestRunEmitsMemleakEventSequence is the end-to-end telemetry check:
// a PREPARE-managed RUBiS memory-leak run must emit the paper's
// predict → filter → alert → diagnose → prevent pipeline as structured
// events, with counters matching the run's exported alerts and steps.
func TestRunEmitsMemleakEventSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run in -short mode")
	}
	withTelemetry(t)
	res, err := Run(Scenario{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemePREPARE, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("Result.Telemetry is nil with telemetry enabled")
	}

	// Counters must agree with the run's own exported results.
	if got, want := snap.Counter("control.alerts.confirmed"), int64(len(res.Alerts)); got != want {
		t.Errorf("control.alerts.confirmed = %d, want %d (len(res.Alerts))", got, want)
	}
	actions := snap.Counter("prevent.actions.scale_cpu") +
		snap.Counter("prevent.actions.scale_mem") +
		snap.Counter("prevent.actions.migrate")
	if want := int64(len(res.Steps)); actions != want {
		t.Errorf("prevent.actions.* = %d, want %d (len(res.Steps))", actions, want)
	}
	// The k-of-W filter has memory: it can confirm on a tick whose own
	// score is below the margin (k earlier raw offers in the window), so
	// confirmed is not simply raw - suppressed. The consistent relations:
	// every suppression was a raw alert, and every raw alert that was not
	// suppressed was confirmed on its own tick.
	raw := snap.Counter("predict.alerts.raw")
	suppressed := snap.Counter("predict.filter.suppressed")
	confirmed := snap.Counter("control.alerts.confirmed")
	if suppressed > raw {
		t.Errorf("suppressed %d > raw %d", suppressed, raw)
	}
	if raw-suppressed > confirmed {
		t.Errorf("raw %d - suppressed %d > confirmed %d", raw, suppressed, confirmed)
	}
	sc := res.Scenario
	wantSamples := (sc.DurationS / sc.SamplingIntervalS) * int64(len(res.VMOrder))
	if got := snap.Counter("monitor.samples.ingested"); got != wantSamples {
		t.Errorf("monitor.samples.ingested = %d, want %d", got, wantSamples)
	}
	if got := snap.Counter("control.trainings"); got < 1 {
		t.Error("control.trainings never incremented")
	}
	if snap.Histograms["predict.window.latency"].Count == 0 {
		t.Error("predict.window.latency has no observations")
	}

	// The event stream must show the pipeline firing on the fault target,
	// in causal order: a prediction window scores above the margin, the
	// alert is confirmed, the cause is ranked, a prevention is applied.
	target := string(res.FaultTarget)
	firstSeq := func(kind string) uint64 {
		for _, e := range eventsOfKind(snap, kind) {
			if e.VM == target {
				return e.Seq
			}
		}
		t.Fatalf("no %q event for fault target %s (events: %d)", kind, target, len(snap.Events))
		return 0
	}
	window := firstSeq(telemetry.KindPredictionWindow)
	alert := firstSeq(telemetry.KindAlertRaised)
	ranked := firstSeq(telemetry.KindCauseRanked)
	applied := firstSeq(telemetry.KindScalingApplied)
	if !(window < alert && alert < ranked && ranked < applied) {
		t.Errorf("pipeline out of order: window %d, alert %d, ranked %d, applied %d",
			window, alert, ranked, applied)
	}
	if suppressed > 0 && len(eventsOfKind(snap, telemetry.KindAlertFiltered)) == 0 {
		t.Error("filter suppressed alerts but emitted no alert-filtered events")
	}

	// The per-run snapshot must have been merged into the global
	// registry.
	global := telemetry.Default().Snapshot()
	if global.Counter("control.alerts.confirmed") < confirmed {
		t.Error("per-run counters were not merged into the global registry")
	}
	if telemetry.Default().Snapshot().Histograms["markov.predict_series.latency"].Count == 0 {
		t.Error("markov timing hook recorded nothing")
	}
}

// TestRunAllMidBatchFailureCountersConsistent pins the batch-accounting
// invariant: a mid-batch failure cancels the remaining scenarios, and
// the run counters must still balance — every started run is counted
// exactly once as completed or failed, and skipped runs are not counted
// at all.
func TestRunAllMidBatchFailureCountersConsistent(t *testing.T) {
	withTelemetry(t)
	short := Scenario{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemeNone, DurationS: 60}
	scenarios := make([]Scenario, 0, 8)
	for i := 0; i < 3; i++ {
		sc := short
		sc.Seed = int64(i)
		scenarios = append(scenarios, sc)
	}
	scenarios = append(scenarios, Scenario{App: AppKind(99), Seed: 3}) // fails inside Run
	for i := 4; i < 8; i++ {
		sc := short
		sc.Seed = int64(i)
		scenarios = append(scenarios, sc)
	}

	if _, err := RunAll(scenarios, BatchOptions{Workers: 2}); err == nil {
		t.Fatal("expected the invalid scenario to fail the batch")
	}

	snap := telemetry.Default().Snapshot()
	started := snap.Counter("experiment.runs.started")
	completed := snap.Counter("experiment.runs.completed")
	failed := snap.Counter("experiment.runs.failed")
	if failed != 1 {
		t.Errorf("runs.failed = %d, want 1", failed)
	}
	if started != completed+failed {
		t.Errorf("runs.started %d != completed %d + failed %d (double-counted cancelled work?)",
			started, completed, failed)
	}
	if started > int64(len(scenarios)) {
		t.Errorf("runs.started = %d > %d scenarios", started, len(scenarios))
	}
	// Only completed runs merge their snapshots: sample ingestion must
	// correspond to whole successful runs (60 s / 5 s × 4 VMs each).
	perRun := int64(60/5) * 4
	ingested := snap.Counter("monitor.samples.ingested")
	if ingested != completed*perRun {
		t.Errorf("monitor.samples.ingested = %d, want %d (completed %d × %d)",
			ingested, completed*perRun, completed, perRun)
	}
}

// TestRepeatMergesPerRunTelemetry checks the multi-run aggregation path
// used by the paper's five-repetition protocol.
func TestRepeatMergesPerRunTelemetry(t *testing.T) {
	withTelemetry(t)
	sc := Scenario{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemeNone, DurationS: 60}
	_, results, err := Repeat(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fromRuns int64
	for _, res := range results {
		if res.Telemetry == nil {
			t.Fatal("per-run snapshot missing")
		}
		fromRuns += res.Telemetry.Counter("monitor.samples.ingested")
	}
	global := telemetry.Default().Snapshot().Counter("monitor.samples.ingested")
	if global != fromRuns {
		t.Errorf("global ingested %d != sum of per-run snapshots %d", global, fromRuns)
	}
}

// eventsOfKind filters the snapshot's events by kind, preserving order.
func eventsOfKind(s *telemetry.Snapshot, kind string) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range s.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
