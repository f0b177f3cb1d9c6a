package experiment

import (
	"math"
	"strings"
	"testing"

	"prepare/internal/control"
	"prepare/internal/detector"
	"prepare/internal/faults"
	"prepare/internal/pool"
	"prepare/internal/simclock"
)

func alertsAt(times ...int64) []control.AlertEvent {
	out := make([]control.AlertEvent, len(times))
	for i, t := range times {
		out[i] = control.AlertEvent{Time: simclock.Time(t), VM: "vm-1", Predicted: true}
	}
	return out
}

func TestScoreAlertsPositionalCredit(t *testing.T) {
	windows := []AnomalyWindow{{Start: 900, End: 1200}}

	// Detection at the window start earns full credit.
	s := ScoreAlerts(alertsAt(900), windows, NABOptions{})
	if s.Detected != 1 || s.FalseAlarms != 0 {
		t.Fatalf("detected %d fp %d, want 1/0", s.Detected, s.FalseAlarms)
	}
	if s.Raw != 1.0 || s.Normalized != 100 {
		t.Fatalf("start-of-window raw %v normalized %v, want 1.0 / 100", s.Raw, s.Normalized)
	}

	// Mid-window detection earns three quarters; a duplicate later alert
	// inside the window changes nothing.
	s = ScoreAlerts(alertsAt(1050, 1100), windows, NABOptions{})
	if s.Raw != 0.75 {
		t.Fatalf("mid-window raw %v, want 0.75", s.Raw)
	}
	if s.MeanLeadS != 150 {
		t.Fatalf("mean lead %v, want 150", s.MeanLeadS)
	}

	// A miss costs the full FN weight: raw -1, normalized 0 at silence.
	s = ScoreAlerts(nil, windows, NABOptions{})
	if s.Missed != 1 || s.Raw != -1.0 || s.Normalized != 0 {
		t.Fatalf("silence missed %d raw %v normalized %v, want 1 / -1 / 0", s.Missed, s.Raw, s.Normalized)
	}
}

func TestScoreAlertsFalseAlarmsAndLeadCredit(t *testing.T) {
	windows := []AnomalyWindow{{Start: 900, End: 1200}}

	// An alert before the window is a false alarm without lead credit...
	s := ScoreAlerts(alertsAt(850), windows, NABOptions{})
	if s.FalseAlarms != 1 || s.Detected != 0 {
		t.Fatalf("fp %d detected %d, want 1/0", s.FalseAlarms, s.Detected)
	}
	if want := -5.5; s.Raw != -0.11-1.0 || math.Abs(s.Normalized-want) > 1e-9 {
		t.Fatalf("raw %v normalized %v, want %v / %v", s.Raw, s.Normalized, -1.11, want)
	}

	// ...and an early detection with full credit under LeadCreditS.
	s = ScoreAlerts(alertsAt(850), windows, NABOptions{LeadCreditS: 120})
	if s.Detected != 1 || s.FalseAlarms != 0 || s.Raw != 1.0 {
		t.Fatalf("lead-credit detected %d fp %d raw %v, want 1/0/1.0", s.Detected, s.FalseAlarms, s.Raw)
	}
	if s.MeanLeadS != 350 {
		t.Fatalf("lead-credit mean lead %v, want 350", s.MeanLeadS)
	}

	// EvalStartS drops alerts the detector could not have raised.
	s = ScoreAlerts(alertsAt(100, 950), windows, NABOptions{EvalStartS: 600})
	if s.FalseAlarms != 0 || s.Detected != 1 {
		t.Fatalf("eval-start fp %d detected %d, want 0/1", s.FalseAlarms, s.Detected)
	}
}

func TestAnomalyWindowsFromScenario(t *testing.T) {
	sc := Scenario{App: SystemS, Fault: faults.MemoryLeak}
	got := sc.AnomalyWindows()
	// Inject1 [200,500) ends before training at 600: not scoreable.
	want := []AnomalyWindow{{Start: 900, End: 1200}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("windows %v, want %v", got, want)
	}

	// Both injections after training are scoreable.
	sc = Scenario{App: SystemS, Fault: faults.MemoryLeak,
		TrainAtS: 300, Inject1: [2]int64{400, 500}, Inject2: [2]int64{900, 1200}}
	got = sc.AnomalyWindows()
	if len(got) != 2 || got[0] != (AnomalyWindow{Start: 400, End: 500}) {
		t.Fatalf("windows %v, want two starting at 400", got)
	}

	// SkipFirstInjection pushes Inject1 past the run: only Inject2 counts.
	sc = Scenario{App: SystemS, Fault: faults.MemoryLeak, SkipFirstInjection: true}
	if got = sc.AnomalyWindows(); len(got) != 1 || got[0].Start != 900 {
		t.Fatalf("skip-first windows %v, want [900,1200) only", got)
	}
}

// TestCompareDetectorsEnsembleWins is the PR's acceptance check: the
// majority-vote Ensemble{TAN, EWMA} must beat either member alone on at
// least one fault class — the TAN member vetoes the EWMA's adaptation
// bursts, the EWMA member vetoes the TAN's misfires — and the table
// must be byte-identical for any worker-pool size.
func TestCompareDetectorsEnsembleWins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine full scenarios")
	}
	base := Scenario{App: SystemS, Seed: 100}
	specs := []detector.Spec{
		{Kind: detector.KindTAN},
		{Kind: detector.KindEWMA},
		{Kind: detector.KindEnsemble, Members: []string{detector.KindTAN, detector.KindEWMA}},
	}
	kinds := []faults.Kind{faults.MemoryLeak, faults.CPUHog, faults.Bottleneck}

	runs, err := CompareDetectors(base, kinds, specs, NABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(kinds)*len(specs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(kinds)*len(specs))
	}

	wins := 0
	for i := 0; i < len(runs); i += len(specs) {
		tan, ewma, ens := runs[i], runs[i+1], runs[i+2]
		if ens.Score.Normalized > tan.Score.Normalized && ens.Score.Normalized > ewma.Score.Normalized {
			wins++
			t.Logf("ensemble beats both members on %v: %.1f vs tan %.1f / ewma %.1f",
				ens.Fault, ens.Score.Normalized, tan.Score.Normalized, ewma.Score.Normalized)
		}
	}
	if wins == 0 {
		t.Fatalf("ensemble never beat both members:\n%s", FormatDetectorTable(runs))
	}

	// Byte-identical table across worker counts.
	table := FormatDetectorTable(runs)
	pool.SetDefaultWorkers(1)
	defer pool.SetDefaultWorkers(0)
	serial, err := CompareDetectors(base, kinds, specs, NABOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatDetectorTable(serial); got != table {
		t.Fatalf("table differs across worker counts:\nparallel:\n%s\nserial:\n%s", table, got)
	}
	if !strings.Contains(table, "ensemble:tan+ewma") {
		t.Fatalf("table missing ensemble row:\n%s", table)
	}
}
