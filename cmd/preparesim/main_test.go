package main

import (
	"flag"
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

// TestApplyRetrainWiresPolicy checks the -policy flag lands on the
// scenario, defaults to the pre-existing behavior, and rejects unknown
// spellings.
func TestApplyRetrainWiresPolicy(t *testing.T) {
	o := options{policy: "migration"}
	sc, err := o.applyRetrain(prepare.Scenario{App: prepare.SystemS})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Policy != prepare.MigrationOnly {
		t.Errorf("applyRetrain produced policy %v", sc.Policy)
	}
	def, err := (options{}).applyRetrain(prepare.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Policy != 0 {
		t.Errorf("flag defaults must keep the scenario zero values, got %+v", def)
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
		// Removed flags: the standing benchmark is the one load generator.
		{"-loadgen"},
		{"-profile", "short"},
		{"-rate", "20000"},
		{"-wire", "binary"},
		{"-alerts-out", "alerts.json"},
		// A mode-specific flag is an error in every mode that ignores it,
		// even when it spells the default.
		{"-experiment", "fig8", "-policy", "scaling-first"},
		{"-experiment", "detectors", "-policy", "migration"},
		{"-experiment", "fig6", "-detector", "ewma"},
		{"-experiment", "unseen", "-detector", "tan"},
		{"-serve", "-detector", "ewma"},
		{"-engine", "-serve", "-detector", "ewma"},
		{"-experiment", "fig6", "-retrain", "0"},
		{"-experiment", "table1", "-history-window", "720"},
		{"-experiment", "report", "-chaos"},
		{"-experiment", "all", "-chaos-seed", "7"},
		{"-experiment", "unseen", "-chaos-rate", "0.02"},
		{"-experiment", "detectors", "-retrain", "600"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "fig6", "-policy", "migration"},
			"-policy is not read by -experiment fig6 (only by -experiment run, -engine)"},
		{[]string{"-serve", "-detector", "ewma"},
			"-detector is not read by -serve (only by -experiment run, -engine, -experiment detectors)"},
		{[]string{"-experiment", "fig10", "-retrain", "0"},
			"-retrain is not read by -experiment fig10 (only by -experiment run, -engine, -serve)"},
		{[]string{"-wire", "json"}, "flag provided but not defined: -wire"},
		{[]string{"-placement", "naive"}, "flag provided but not defined: -placement"},
	} {
		if err := run(c.args); err == nil || err.Error() != c.want {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestModeFlagsAcceptedWhereRead: every mode modeFlags lists for a flag
// accepts it, and each invocation maps onto the mode names the table
// uses.
func TestModeFlagsAcceptedWhereRead(t *testing.T) {
	for name, modes := range modeFlags {
		for _, mode := range modes {
			fs := flag.NewFlagSet("preparesim", flag.ContinueOnError)
			fs.String(name, "", "")
			if err := fs.Parse([]string{"-" + name, "1"}); err != nil {
				t.Fatal(err)
			}
			if err := checkModeFlags(fs, mode); err != nil {
				t.Errorf("-%s rejected by %s: %v", name, mode, err)
			}
		}
	}
	for _, c := range []struct {
		o    options
		want string
	}{
		{options{experiment: "run"}, "-experiment run"},
		{options{experiment: "engine"}, "-engine"},
		{options{experiment: "detectors"}, "-experiment detectors"},
		{options{experiment: "engine", serve: true}, "-serve"},
	} {
		if got := c.o.mode(); got != c.want {
			t.Errorf("%+v.mode() = %q, want %q", c.o, got, c.want)
		}
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

// TestUnseenHeaderNamesRun checks the unseen experiment's header names
// the app and fault it actually ran, for the default flags and for an
// explicit pair.
func TestUnseenHeaderNamesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "Section V extension: first-occurrence prevention (systems memleak)"},
		{[]string{"-app", "rubis", "-fault", "cpuhog"},
			"Section V extension: first-occurrence prevention (rubis cpuhog)"},
	} {
		args := append([]string{"-experiment", "unseen"}, c.args...)
		out := captureStdout(t, func() error { return run(args) })
		if header, _, _ := strings.Cut(out, "\n"); header != c.want {
			t.Errorf("run(%v) header = %q, want %q", args, header, c.want)
		}
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
