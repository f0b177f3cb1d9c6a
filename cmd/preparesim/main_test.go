package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prepare"
)

func TestNameLookups(t *testing.T) {
	if a, ok := appByName("systems"); !ok || a != prepare.SystemS {
		t.Error("appByName(systems) wrong")
	}
	if a, ok := appByName("rubis"); !ok || a != prepare.RUBiS {
		t.Error("appByName(rubis) wrong")
	}
	if _, ok := appByName("nope"); ok {
		t.Error("unknown app resolved")
	}
	if f, ok := faultByName("memleak"); !ok || f != prepare.MemoryLeak {
		t.Error("faultByName(memleak) wrong")
	}
	if f, ok := faultByName("cpuhog"); !ok || f != prepare.CPUHog {
		t.Error("faultByName(cpuhog) wrong")
	}
	if f, ok := faultByName("bottleneck"); !ok || f != prepare.Bottleneck {
		t.Error("faultByName(bottleneck) wrong")
	}
	if _, ok := faultByName("gremlins"); ok {
		t.Error("unknown fault resolved")
	}
	if s, ok := schemeByName("prepare"); !ok || s != prepare.SchemePREPARE {
		t.Error("schemeByName(prepare) wrong")
	}
	if _, ok := schemeByName("magic"); ok {
		t.Error("unknown scheme resolved")
	}
}

// TestApplyRetrainWiresScenario checks the CLI knobs land on the
// scenario fields the control loop reads.
func TestApplyRetrainWiresScenario(t *testing.T) {
	o := options{retrainS: 600, historyWindow: 720}
	sc, err := o.applyRetrain(prepare.Scenario{App: prepare.RUBiS})
	if err != nil {
		t.Fatal(err)
	}
	if sc.RetrainIntervalS != 600 || sc.HistoryWindowSamples != 720 {
		t.Errorf("applyRetrain produced %+v", sc)
	}
}

// TestApplyRetrainWiresPlacementAndPolicy checks the -placement and
// -policy flags land on the scenario, default to the pre-existing
// behavior, and reject unknown spellings.
func TestApplyRetrainWiresPlacementAndPolicy(t *testing.T) {
	o := options{placement: "predictive", policy: "migration"}
	sc, err := o.applyRetrain(prepare.Scenario{App: prepare.SystemS})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Placement != prepare.PlacementPredictive || sc.Policy != prepare.MigrationOnly {
		t.Errorf("applyRetrain produced placement %v policy %v", sc.Placement, sc.Policy)
	}
	def, err := (options{}).applyRetrain(prepare.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Placement != prepare.PlacementNaive || def.Policy != 0 {
		t.Errorf("flag defaults must keep the scenario zero values, got %+v", def)
	}
	if _, err := (options{placement: "psychic"}).applyRetrain(prepare.Scenario{}); err == nil {
		t.Error("bad placement mode should fail")
	}
	if _, err := (options{policy: "prayer"}).applyRetrain(prepare.Scenario{}); err == nil {
		t.Error("bad policy should fail")
	}
}

func TestMetricNames(t *testing.T) {
	if metricName(prepare.SystemS) != "throughput Ktuples/s" {
		t.Error("systems metric name wrong")
	}
	if metricName(prepare.RUBiS) != "avg response time ms" {
		t.Error("rubis metric name wrong")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-experiment", "nope"},
		{"-experiment", "run", "-app", "nope"},
		{"-experiment", "run", "-fault", "nope"},
		{"-experiment", "run", "-scheme", "nope"},
		// Removed flags: there is one tick and one retraining rule.
		{"-experiment", "run", "-retrain-mode", "batch"},
		{"-experiment", "run", "-batch", "off"},
		// -placement and -policy mean nothing outside run and engine.
		{"-experiment", "fig6", "-placement", "predictive"},
		{"-experiment", "fig8", "-policy", "scaling-first"},
		{"-experiment", "table1", "-placement", "naive"},
		{"-experiment", "run", "-loadgen", "-placement", "predictive"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	err := run([]string{"-experiment", "fig6", "-policy", "migration"})
	if err == nil || !strings.Contains(err.Error(), "-experiment run and -engine") {
		t.Errorf("misplaced -policy error %v does not name the modes that accept it", err)
	}
}

func TestRunSingleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	err := run([]string{"-experiment", "run", "-app", "rubis", "-fault", "cpuhog",
		"-scheme", "reactive", "-seed", "3"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	fnErr := fn()
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if fnErr != nil {
		t.Fatalf("run: %v", fnErr)
	}
	return string(out)
}

// TestEngineOutputIdenticalAcrossShards runs the same tenants through
// the CLI at shard counts 1 and 4 and requires byte-identical stdout.
func TestEngineOutputIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	engineArgs := func(shards string) []string {
		return []string{"-engine", "-tenants", "3", "-shards", shards,
			"-app", "rubis", "-fault", "cpuhog", "-seed", "11"}
	}
	ref := captureStdout(t, func() error { return run(engineArgs("1")) })
	if !strings.Contains(ref, "aggregate: alerts") {
		t.Errorf("engine output looks wrong:\n%s", ref)
	}
	if got := captureStdout(t, func() error { return run(engineArgs("4")) }); got != ref {
		t.Errorf("engine output diverged between -shards 1 and 4:\n--- 4 ---\n%s\n--- 1 ---\n%s", got, ref)
	}
}

// TestProfileFlagsWriteFiles checks -cpuprofile and -memprofile emit
// non-empty pprof files.
func TestProfileFlagsWriteFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	_ = captureStdout(t, func() error {
		return run([]string{"-experiment", "run", "-app", "rubis", "-fault", "cpuhog",
			"-scheme", "reactive", "-seed", "3", "-cpuprofile", cpu, "-memprofile", mem})
	})
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestRunRejectsBadTelemetryFormat(t *testing.T) {
	err := run([]string{"-experiment", "run", "-telemetry", "-telemetry-format", "xml"})
	if err == nil {
		t.Fatal("bad telemetry format should fail before running anything")
	}
}

// TestTelemetryFlagReportsSummary runs a full scenario with -telemetry
// and checks the end-of-run stderr report carries the run's counters.
func TestTelemetryFlagReportsSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	defer prepare.DisableTelemetry()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	savedStderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-experiment", "run", "-app", "rubis", "-fault", "memleak",
		"-scheme", "none", "-telemetry"})
	os.Stderr = savedStderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	report := string(out)
	for _, want := range []string{
		"== telemetry summary ==",
		"monitor.samples.ingested",
		"monitor.slo.violated_seconds",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("telemetry report missing %q\n%s", want, report)
		}
	}
}
