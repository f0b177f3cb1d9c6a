package experiment

import (
	"testing"

	"prepare/internal/control"
	"prepare/internal/detector"
	"prepare/internal/faults"
)

// TestUnseenAnomalyPrevention exercises the paper's Section V extension
// end to end: with no training-time fault injection, the supervised
// PREPARE is blind to the anomaly's first occurrence, while the
// unsupervised variant (outlier detection over predicted states)
// prevents a substantial part of it.
func TestUnseenAnomalyPrevention(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	base := Scenario{
		App: RUBiS, Fault: faults.MemoryLeak, Seed: 100,
		SkipFirstInjection: true,
	}

	noneSc := base
	noneSc.Scheme = control.SchemeNone
	none, err := Run(noneSc)
	if err != nil {
		t.Fatal(err)
	}
	if none.EvalViolationSeconds < 100 {
		t.Fatalf("baseline violation only %ds — fault too weak", none.EvalViolationSeconds)
	}

	supSc := base
	supSc.Scheme = control.SchemePREPARE
	supervised, err := Run(supSc)
	if err != nil {
		t.Fatal(err)
	}

	unsSc := base
	unsSc.Scheme = control.SchemePREPARE
	unsSc.Detector = detector.Spec{Kind: detector.KindKMeans}
	unsupervised, err := Run(unsSc)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("first occurrence: none=%ds supervised=%ds unsupervised=%ds (uns steps=%d alerts=%d)",
		none.EvalViolationSeconds, supervised.EvalViolationSeconds,
		unsupervised.EvalViolationSeconds, len(unsupervised.Steps), len(unsupervised.Alerts))

	// The unsupervised variant must cut the violation substantially.
	if float64(unsupervised.EvalViolationSeconds) > 0.6*float64(none.EvalViolationSeconds) {
		t.Errorf("unsupervised PREPARE should prevent most of the first occurrence: %d vs none %d",
			unsupervised.EvalViolationSeconds, none.EvalViolationSeconds)
	}
	// The supervised model trained without any labeled anomaly retains
	// only a weak novelty-detection effect (Laplace smoothing makes
	// unseen bins score against the empty abnormal class), so it reacts
	// late; the unsupervised detector must do at least as well.
	if unsupervised.EvalViolationSeconds > supervised.EvalViolationSeconds {
		t.Errorf("unsupervised (%ds) should beat supervised (%ds) on a first occurrence",
			unsupervised.EvalViolationSeconds, supervised.EvalViolationSeconds)
	}
}
