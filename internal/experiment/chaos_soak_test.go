package experiment

import (
	"fmt"
	"testing"

	"prepare/internal/chaos"
	"prepare/internal/control"
	"prepare/internal/faults"
	"prepare/internal/prevent"
	"prepare/internal/telemetry"
)

// chaosFingerprint reduces a run to a byte-comparable string: every
// alert, every prevention step, and every injected fault in order.
func chaosFingerprint(alerts, steps, events interface{}) string {
	return fmt.Sprintf("%+v|%+v|%+v", alerts, steps, events)
}

// TestChaosEngineDeterministicAcrossShardCounts extends the engine's
// byte-identical guarantee to fault injection: with chaos enabled, the
// merged streams AND each tenant's injected fault schedule must be
// identical for any shard/worker count, because injection decisions are
// pure functions of (seed, time, VM), never of scheduling. The scenario
// retrains periodically (incrementally: the detector is tan), so the
// sufficient-statistics update and pool-parallel (re)fit paths are
// inside the determinism and race (-race CI job) envelope too.
func TestChaosEngineDeterministicAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine runs in -short mode")
	}
	base := Scenario{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemePREPARE, Seed: 50,
		RetrainIntervalS: 300, Chaos: chaos.Uniform(0, 0.02)}
	run := func(shards, workers int) EngineResult {
		res, err := RunEngine(MultiTenant(3, base), EngineOptions{Shards: shards, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1, 1)
	r3 := run(3, 4)
	if len(r1.Alerts) == 0 {
		t.Fatal("no alerts under chaos; determinism check is vacuous")
	}
	if a, b := fmt.Sprintf("%+v", r1.Alerts), fmt.Sprintf("%+v", r3.Alerts); a != b {
		t.Errorf("merged alerts differ across shard counts:\n%s\nvs\n%s", a, b)
	}
	if a, b := fmt.Sprintf("%+v", r1.Steps), fmt.Sprintf("%+v", r3.Steps); a != b {
		t.Errorf("merged steps differ across shard counts:\n%s\nvs\n%s", a, b)
	}
	if len(r1.Tenants) != len(r3.Tenants) {
		t.Fatalf("tenant counts differ: %d vs %d", len(r1.Tenants), len(r3.Tenants))
	}
	for i := range r1.Tenants {
		ta, tb := r1.Tenants[i], r3.Tenants[i]
		if len(ta.ChaosEvents) == 0 {
			t.Errorf("tenant %s injected no faults; chaos was not active", ta.Tenant)
		}
		fa := chaosFingerprint(ta.Alerts, ta.Steps, ta.ChaosEvents)
		fb := chaosFingerprint(tb.Alerts, tb.Steps, tb.ChaosEvents)
		if fa != fb {
			t.Errorf("tenant %s differs across shard counts:\n%s\nvs\n%s", ta.Tenant, fa, fb)
		}
	}
}

// TestChaosSoak is the resilience capstone: a PREPARE-managed memory
// leak soaked for >5000 simulated steps under 1.5% per-call chaos on
// every fault kind, batched with a second chaotic scenario. The loop
// must finish without a panic or deadlock, keep the batch accounting
// invariant (started == completed + failed), still detect and prevent
// the injected paper fault, and reproduce byte-identically when run
// again serially.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	withTelemetry(t)

	const soakSteps = 5100
	soak := Scenario{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemePREPARE, Seed: 7,
		DurationS: soakSteps, RetrainIntervalS: 600, Chaos: chaos.Uniform(0, 0.015)}
	side := Scenario{App: SystemS, Fault: faults.CPUHog, Scheme: control.SchemePREPARE, Seed: 8,
		Chaos: chaos.Uniform(0, 0.015), Policy: prevent.MigrationOnly}

	results, err := RunAll([]Scenario{soak, side}, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatalf("soak batch failed: %v", err)
	}

	snap := telemetry.Default().Snapshot()
	started := snap.Counter("experiment.runs.started")
	completed := snap.Counter("experiment.runs.completed")
	failed := snap.Counter("experiment.runs.failed")
	if started != completed+failed {
		t.Errorf("runs.started %d != completed %d + failed %d", started, completed, failed)
	}
	if completed != 2 || failed != 0 {
		t.Errorf("completed/failed = %d/%d, want 2/0", completed, failed)
	}

	res := results[0]
	if len(res.ChaosEvents) == 0 {
		t.Fatal("soak injected no faults")
	}
	// The decorator must have exercised both halves of the taxonomy:
	// metric-path corruption and actuator-path failures.
	kinds := map[chaos.FaultKind]int{}
	for _, e := range res.ChaosEvents {
		kinds[e.Kind]++
	}
	if kinds[chaos.FaultMetricDrop] == 0 || kinds[chaos.FaultMetricNaN] == 0 {
		t.Errorf("metric-path faults missing from soak: %v", kinds)
	}
	if kinds[chaos.FaultMetricStale] == 0 || kinds[chaos.FaultMetricStuck] == 0 {
		t.Errorf("sensor-staleness faults missing from soak: %v", kinds)
	}

	// The injected paper fault must still be caught and acted on: the
	// leak anomaly is predicted and a prevention lands on the leaky VM.
	if len(res.Alerts) == 0 {
		t.Error("soak run raised no alerts; the leak went undetected under chaos")
	}
	prevented := false
	for _, s := range res.Steps {
		if s.VM == res.FaultTarget {
			prevented = true
			break
		}
	}
	if !prevented {
		t.Errorf("no prevention step on fault target %s (steps: %+v)", res.FaultTarget, res.Steps)
	}

	// The soak retrains incrementally (tan with an interval set):
	// every post-training sample must have been folded into the
	// sufficient statistics, and each retrain deadline must have rebuilt
	// the classifiers through the O(1) path, not a batch refit.
	if c := snap.Counter("train.incremental.updates"); c == 0 {
		t.Error("no incremental training updates despite periodic retraining")
	}
	if n := snap.Histograms["control.retrain.latency.incremental"].Count; n == 0 {
		t.Error("no incremental retrains were recorded by the latency histogram")
	}
	if n := snap.Histograms["control.retrain.latency.batch"].Count; n != 0 {
		t.Errorf("%d batch retrains recorded; the soak should retrain incrementally", n)
	}

	// The monitor's resilience path must actually have fired: dropped
	// samples were carried forward and corrupted ones repaired.
	if c := snap.Counter("monitor.samples.carried_forward"); c == 0 {
		t.Error("no samples were carried forward despite injected drops")
	}
	if c := snap.Counter("monitor.samples.sanitized"); c == 0 {
		t.Error("no samples were sanitized despite injected NaNs")
	}
	// Injection telemetry must agree with the decorator's own log for
	// the completed batch.
	var telInjected int64
	for _, name := range []string{
		"chaos.injected.metric_drop", "chaos.injected.metric_stale",
		"chaos.injected.metric_stuck", "chaos.injected.metric_nan",
		"chaos.injected.actuator_transient", "chaos.injected.actuator_insufficient",
		"chaos.injected.actuator_no_target", "chaos.injected.migration_stall",
	} {
		telInjected += snap.Counter(name)
	}
	if want := int64(len(results[0].ChaosEvents) + len(results[1].ChaosEvents)); telInjected != want {
		t.Errorf("chaos.injected.* total = %d, want %d (sum of event logs)", telInjected, want)
	}

	// Soaks must be reproducible: the same scenario run serially again
	// yields a byte-identical outcome, faults included.
	again, err := Run(soak)
	if err != nil {
		t.Fatalf("serial soak rerun failed: %v", err)
	}
	f1 := chaosFingerprint(res.Alerts, res.Steps, res.ChaosEvents)
	f2 := chaosFingerprint(again.Alerts, again.Steps, again.ChaosEvents)
	if f1 != f2 {
		t.Errorf("soak is not reproducible:\n%s\nvs\n%s", f1, f2)
	}
	if res.EvalViolationSeconds != again.EvalViolationSeconds {
		t.Errorf("violation seconds differ across reruns: %d vs %d",
			res.EvalViolationSeconds, again.EvalViolationSeconds)
	}
}
