package predict

import (
	"math"
	"math/rand"
	"testing"

	"prepare/internal/metrics"
)

// leakTrace synthesizes a trace resembling a memory-leak manifestation:
// column 0 (think free_mem) declines linearly into the anomaly while
// column 1 is noise. Labels flip to abnormal once column 0 drops below
// the threshold.
func leakTrace(n int, seed int64) ([][]float64, []metrics.Label) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	labels := make([]metrics.Label, n)
	for i := 0; i < n; i++ {
		free := 1000 - float64(i)*(1000/float64(n))
		free *= 1 + 0.02*rng.NormFloat64()
		noise := 50 + 10*rng.NormFloat64()
		rows[i] = []float64{free, noise}
		if free < 250 {
			labels[i] = metrics.LabelAbnormal
		} else {
			labels[i] = metrics.LabelNormal
		}
	}
	return rows, labels
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := New(Config{Order: 7}, []string{"a"}); err == nil {
		t.Error("bad markov order should fail")
	}
}

func TestDefaults(t *testing.T) {
	p, err := New(Config{}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.Bins != 8 || cfg.Order != TwoDependent || cfg.SamplingIntervalS != 5 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestTrainValidation(t *testing.T) {
	p, err := New(Config{}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(nil, nil); err == nil {
		t.Error("empty training should fail")
	}
	if err := p.Train([][]float64{{1, 2}}, nil); err == nil {
		t.Error("label mismatch should fail")
	}
	if err := p.Train([][]float64{{1}}, []metrics.Label{metrics.LabelNormal}); err == nil {
		t.Error("row width mismatch should fail")
	}
	if err := p.Train([][]float64{{1, 2}}, []metrics.Label{metrics.LabelUnknown}); err == nil {
		t.Error("all-unknown labels should fail")
	}
}

func TestUntrainedErrors(t *testing.T) {
	p, err := New(Config{}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe([]float64{1}); err != ErrNotTrained {
		t.Errorf("Observe untrained = %v, want ErrNotTrained", err)
	}
	if _, err := p.Predict(1); err != ErrNotTrained {
		t.Errorf("Predict untrained = %v, want ErrNotTrained", err)
	}
	if _, err := p.ClassifyCurrent([]float64{1}); err != ErrNotTrained {
		t.Errorf("ClassifyCurrent untrained = %v, want ErrNotTrained", err)
	}
	if err := p.Update([]float64{1}, metrics.LabelNormal); err != ErrNotTrained {
		t.Errorf("Update untrained = %v, want ErrNotTrained", err)
	}
	if err := p.Retrain(); err != ErrNotTrained {
		t.Errorf("Retrain untrained = %v, want ErrNotTrained", err)
	}
}

func TestPredictsLeakAnomalyInAdvance(t *testing.T) {
	rows, labels := leakTrace(200, 1)
	p, err := New(Config{Bins: 10}, []string{"free_mem", "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatalf("Train: %v", err)
	}

	// Replay a second leak: feed fresh declining samples and look for an
	// alert before the value actually crosses the threshold.
	testRows, testLabels := leakTrace(200, 2)
	alertAt := -1
	violationAt := -1
	for i, row := range testRows {
		if err := p.Observe(row); err != nil {
			t.Fatal(err)
		}
		if violationAt < 0 && testLabels[i] == metrics.LabelAbnormal {
			violationAt = i
		}
		if alertAt >= 0 {
			continue
		}
		v, err := p.Predict(4)
		if err != nil {
			t.Fatal(err)
		}
		if v.Abnormal {
			alertAt = i
		}
	}
	if alertAt < 0 {
		t.Fatal("predictor never raised an alert on a leak replay")
	}
	if violationAt < 0 {
		t.Fatal("test trace has no violation")
	}
	if alertAt >= violationAt {
		t.Errorf("alert at %d not before violation at %d", alertAt, violationAt)
	}
	// Lead time should be meaningful but not absurd.
	if violationAt-alertAt > 120 {
		t.Errorf("alert absurdly early: lead = %d samples", violationAt-alertAt)
	}
}

func TestStrengthsRankLeakAttribute(t *testing.T) {
	rows, labels := leakTrace(200, 3)
	p, err := New(Config{Bins: 10}, []string{"free_mem", "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	// Drive the chains near the anomaly region and predict.
	testRows, _ := leakTrace(200, 4)
	for _, row := range testRows[:170] {
		if err := p.Observe(row); err != nil {
			t.Fatal(err)
		}
	}
	v, err := p.Predict(4)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Abnormal {
		t.Fatal("expected abnormal prediction near the anomaly")
	}
	if len(v.Strengths) != 2 {
		t.Fatalf("strengths = %v", v.Strengths)
	}
	if v.Strengths[0].Attribute != 0 {
		t.Errorf("top-ranked attribute = %d, want 0 (free_mem)", v.Strengths[0].Attribute)
	}
}

func TestClassifyCurrent(t *testing.T) {
	rows, labels := leakTrace(200, 5)
	p, err := New(Config{Bins: 10}, []string{"free_mem", "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	abnormal, err := p.ClassifyCurrent([]float64{100, 50}) // deep in anomaly
	if err != nil {
		t.Fatal(err)
	}
	if !abnormal {
		t.Error("low free_mem should classify abnormal")
	}
	normal, err := p.ClassifyCurrent([]float64{900, 50})
	if err != nil {
		t.Fatal(err)
	}
	if normal {
		t.Error("high free_mem should classify normal")
	}
}

func TestStepsFor(t *testing.T) {
	p, err := New(Config{SamplingIntervalS: 5}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		lookahead int64
		want      int
	}{
		{0, 1}, {1, 1}, {5, 1}, {6, 2}, {10, 2}, {45, 9}, {120, 24},
	}
	for _, tt := range tests {
		if got := p.StepsFor(tt.lookahead); got != tt.want {
			t.Errorf("StepsFor(%d) = %d, want %d", tt.lookahead, got, tt.want)
		}
	}
}

func TestVerdictScoreSignConsistency(t *testing.T) {
	rows, labels := leakTrace(150, 6)
	p, err := New(Config{}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	for steps := 1; steps <= 6; steps++ {
		v, err := p.Predict(steps)
		if err != nil {
			t.Fatal(err)
		}
		if v.Abnormal != (v.Score > 0) {
			t.Errorf("steps %d: Abnormal=%v but Score=%g", steps, v.Abnormal, v.Score)
		}
		if len(v.FutureBins) != 2 {
			t.Errorf("steps %d: future bins = %v", steps, v.FutureBins)
		}
		for _, b := range v.FutureBins {
			if b < 0 || b >= p.Config().Bins {
				t.Errorf("future bin %d out of range", b)
			}
		}
	}
}

func TestSimpleOrderWorks(t *testing.T) {
	rows, labels := leakTrace(150, 7)
	p, err := New(Config{Order: SimpleMarkov}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(3); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveClassifierWorks(t *testing.T) {
	rows, labels := leakTrace(150, 8)
	p, err := New(Config{Naive: true}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	abnormal, err := p.ClassifyCurrent([]float64{100, 50})
	if err != nil {
		t.Fatal(err)
	}
	if !abnormal {
		t.Error("naive classifier should also catch the anomaly")
	}
}

func TestObserveShape(t *testing.T) {
	rows, labels := leakTrace(100, 9)
	p, err := New(Config{}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe([]float64{1}); err == nil {
		t.Error("wrong-width observe should fail")
	}
}

func TestPredictorDeterministic(t *testing.T) {
	mk := func() Verdict {
		rows, labels := leakTrace(150, 10)
		p, err := New(Config{}, []string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Train(rows, labels); err != nil {
			t.Fatal(err)
		}
		v, err := p.Predict(4)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := mk(), mk()
	if a.Abnormal != b.Abnormal || math.Abs(a.Score-b.Score) > 1e-12 {
		t.Error("identical training should give identical verdicts")
	}
}

// TestForecastValueMaxMatchesPredictSeries checks the allocation-free
// forecast against the expression it replaced — the same reduction over
// the chain's allocating PredictSeries — bit for bit, across columns,
// horizons and further observations, and pins it at zero allocations.
func TestForecastValueMaxMatchesPredictSeries(t *testing.T) {
	rows, labels := leakTrace(400, 2)
	p, err := New(Config{}, []string{"free_mem", "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows[:300], labels[:300]); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < len(rows); i++ {
		if err := p.Observe(rows[i]); err != nil {
			t.Fatal(err)
		}
		for col := range rows[i] {
			lookahead := int64(5 * (1 + (i+col)%30))
			got, ok := p.ForecastValueMax(col, lookahead)
			if !ok {
				t.Fatalf("row %d col %d: no forecast", i, col)
			}
			want := 0.0
			for s, dist := range p.vm.chains[col].PredictSeries(p.StepsFor(lookahead)) {
				v := 0.0
				for b, pb := range dist {
					v += pb * p.vm.disc[col].Center(b)
				}
				if s == 0 || v > want {
					want = v
				}
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d col %d lookahead %ds: forecast %v, PredictSeries reduction %v", i, col, lookahead, got, want)
			}
		}
	}
	if _, ok := p.ForecastValueMax(len(rows[0]), 120); ok {
		t.Fatal("a column out of range must report false")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := p.ForecastValueMax(1, 120); !ok {
			t.Fatal("no forecast")
		}
	})
	if allocs != 0 {
		t.Fatalf("ForecastValueMax allocates %.1f/op, want 0", allocs)
	}
}
