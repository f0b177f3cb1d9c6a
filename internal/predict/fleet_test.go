package predict

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prepare/internal/bayes"
	"prepare/internal/detector"
	"prepare/internal/markov"
	"prepare/internal/metrics"
)

// referenceWindow is the per-step window scorer the fleet kernel is
// pinned against. It propagates each chain's predicted series on its
// own, scores every step separately (MarginalScoreFast over a freshly
// built log-ratio table, or the Score of the argmax bins under
// ArgmaxScore), and materializes the verdict of the first step that
// reaches the maximum. It returns that verdict and its 0-based step.
func referenceWindow(p *Predictor, lookaheadS int64) (Verdict, int, error) {
	if !p.trained {
		return Verdict{}, 0, ErrNotTrained
	}
	maxSteps := p.StepsFor(lookaheadS)
	series := make([][][]float64, len(p.vm.names))
	for j, ch := range p.vm.chains {
		series[j] = ch.PredictSeries(maxSteps)
	}
	lr := p.model.LogRatios()
	var sc bayes.Scratch
	marginals := make([][]float64, len(series))
	future := make([]int, len(series))
	bestStep, bestScore := 0, 0.0
	for s := 0; s < maxSteps; s++ {
		for j := range marginals {
			marginals[j] = series[j][s]
		}
		var score float64
		if p.vm.cfg.ArgmaxScore {
			for j, dist := range marginals {
				future[j] = markov.ArgMax(dist)
			}
			var err error
			if score, err = p.model.Score(future); err != nil {
				return Verdict{}, 0, err
			}
		} else {
			score = p.model.MarginalScoreFast(marginals, lr, &sc)
		}
		if s == 0 || score > bestScore {
			bestStep, bestScore = s, score
		}
	}
	for j := range marginals {
		marginals[j] = series[j][bestStep]
	}
	v, err := p.score(marginals)
	return v, bestStep, err
}

// trainedPair builds two identically trained predictors over synthetic
// labeled rows (one for the scalar oracle, one for the batch path).
func trainedPair(t testing.TB, cfg Config, seed int64) (*Predictor, *Predictor) {
	t.Helper()
	names := AttributeNames()
	build := func() *Predictor {
		rng := rand.New(rand.NewSource(seed))
		p, err := New(cfg, names)
		if err != nil {
			t.Fatalf("new predictor: %v", err)
		}
		rows := make([][]float64, 160)
		labels := make([]metrics.Label, len(rows))
		for i := range rows {
			row := make([]float64, len(names))
			for j := range row {
				row[j] = 10*math.Sin(float64(i)/7+float64(j)) + rng.Float64()
			}
			if i > 120 {
				row[0] += float64(i-120) * 2 // drifting anomaly signal
				labels[i] = metrics.LabelAbnormal
			} else {
				labels[i] = metrics.LabelNormal
			}
			rows[i] = row
		}
		if err := p.Train(rows, labels); err != nil {
			t.Fatalf("train: %v", err)
		}
		return p
	}
	return build(), build()
}

// TestFleetMatchesPredictWindow drives two identically trained
// predictors through interleaved observations and predictions, one
// scored by the per-step reference and one through a shared Fleet, and
// requires bit-identical scores, best steps, and materialized verdicts;
// PredictWindow must return the same verdict too.
func TestFleetMatchesPredictWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"twodep-tan", Config{}},
		{"simple-markov", Config{Order: SimpleMarkov}},
		{"naive", Config{Naive: true}},
		{"argmax", Config{ArgmaxScore: true}},
		// Five bins take the Go projection instead of the 8-state
		// series kernel.
		{"bins5", Config{Bins: 5}},
		{"simple-markov-bins5", Config{Order: SimpleMarkov, Bins: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scalar, batch := trainedPair(t, tc.cfg, 5)
			fleet := NewFleet()
			rng := rand.New(rand.NewSource(99))
			row := make([]float64, len(AttributeNames()))
			for round := 0; round < 40; round++ {
				for j := range row {
					row[j] = 10*math.Sin(float64(round)/5+float64(j)) + rng.Float64()*3
				}
				if err := scalar.Observe(row); err != nil {
					t.Fatal(err)
				}
				if err := batch.Observe(row); err != nil {
					t.Fatal(err)
				}
				want, wantStep, err := referenceWindow(scalar, 120)
				if err != nil {
					t.Fatalf("reference window: %v", err)
				}
				dec, err := fleet.ScoreWindow(batch, 120)
				if err != nil {
					t.Fatalf("ScoreWindow: %v", err)
				}
				if math.Float64bits(dec.Score) != math.Float64bits(want.Score) || dec.BestStep != wantStep {
					t.Fatalf("round %d: score %v at step %d vs %v at step %d", round, dec.Score, dec.BestStep, want.Score, wantStep)
				}
				got, err := fleet.Materialize(batch)
				if err != nil {
					t.Fatalf("Materialize: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: verdict mismatch\n got %+v\nwant %+v", round, got, want)
				}
				pw, err := scalar.PredictWindow(120)
				if err != nil {
					t.Fatalf("PredictWindow: %v", err)
				}
				if !reflect.DeepEqual(pw, want) {
					t.Fatalf("round %d: PredictWindow mismatch\n got %+v\nwant %+v", round, pw, want)
				}
			}
		})
	}
}

// TestFleetUntrained: scoring an untrained predictor fails.
func TestFleetUntrained(t *testing.T) {
	p, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet().ScoreWindow(p, 120); err != ErrNotTrained {
		t.Fatalf("got %v, want ErrNotTrained", err)
	}
}

// TestFleetMaterializeGuard rejects materializing a stale decision.
func TestFleetMaterializeGuard(t *testing.T) {
	a, b := trainedPair(t, Config{}, 5)
	fleet := NewFleet()
	if _, err := fleet.ScoreWindow(a, 120); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Materialize(b); err == nil {
		t.Fatal("materializing a predictor that was not scored last must fail")
	}
	if _, err := fleet.Materialize(a); err != nil {
		t.Fatalf("materializing the scored predictor: %v", err)
	}
}

// TestFleetVerdictAfterAnotherScore takes a tan adapter's Verdict after
// the shared fleet has scored another predictor: the adapter re-runs its
// own window pass, and the decision and verdict equal the per-step
// reference's.
func TestFleetVerdictAfterAnotherScore(t *testing.T) {
	scalar, a := trainedPair(t, Config{}, 5)
	_, b := trainedPair(t, Config{}, 11)
	fleet := NewFleet()
	const margin = -1e9 // every window alerts, so every round takes a Verdict
	da := newTANDetector(DetectorOptions{Fleet: fleet, Margin: margin}, a)
	db := newTANDetector(DetectorOptions{Fleet: fleet, Margin: margin}, b)
	rng := rand.New(rand.NewSource(17))
	row := make([]float64, len(AttributeNames()))
	for round := 0; round < 20; round++ {
		for j := range row {
			row[j] = 10*math.Sin(float64(round)/4+float64(j)) + rng.Float64()*3
		}
		for _, p := range []*Predictor{a, b, scalar} {
			if err := p.Observe(row); err != nil {
				t.Fatal(err)
			}
		}
		gotDec, err := da.Score(120)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Score(120); err != nil {
			t.Fatal(err)
		}
		got, err := da.Verdict()
		if err != nil {
			t.Fatalf("round %d: Verdict after another predictor scored: %v", round, err)
		}
		v, step, err := referenceWindow(scalar, 120)
		if err != nil {
			t.Fatal(err)
		}
		wantDec := detector.Decision{Abnormal: v.Score > margin, Score: v.Score, LeadSteps: step + 1}
		want := supervisedVerdict(v, wantDec.Abnormal, wantDec.LeadSteps)
		if gotDec != wantDec || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fleet %+v %+v, reference %+v %+v", round, gotDec, got, wantDec, want)
		}
	}
}

// TestEnsembleTANMemberThroughFleet runs the same ensemble with and
// without a fleet: the tan member scoring through the fleet must give
// every decision and verdict the scalar member gives.
func TestEnsembleTANMemberThroughFleet(t *testing.T) {
	spec, err := detector.ParseSpec("ensemble:tan+kmeans@1")
	if err != nil {
		t.Fatal(err)
	}
	// The trace turns abnormal at tick 300: train across the onset.
	trace, labels := benchTrace(400, 3)
	const train = 340
	build := func(fleet *Fleet) detector.Detector {
		d, err := NewDetector(spec, DetectorOptions{
			Names:           AttributeNames(),
			Margin:          -1e9, // the tan member always votes, so its verdict always counts
			LookbackSamples: 24,
			Incremental:     true,
			Seed:            7,
			Fleet:           fleet,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, train)
		for i := range rows {
			rows[i] = append([]float64(nil), trace[i]...)
		}
		if err := d.Train(rows, append([]metrics.Label(nil), labels[:train]...)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fleet := NewFleet()
	viaFleet, scalar := build(fleet), build(nil)
	alerts := 0
	for i := train; i < len(trace); i++ {
		var decs [2]detector.Decision
		var vs [2]detector.Verdict
		for k, d := range []detector.Detector{viaFleet, scalar} {
			if err := d.Update(trace[i], labels[i]); err != nil {
				t.Fatal(err)
			}
			if decs[k], err = d.Score(120); err != nil {
				t.Fatal(err)
			}
			// Verdict on every tick, as a k-of-W filter may ask for one
			// on a tick whose own vote fell short.
			if vs[k], err = d.Verdict(); err != nil {
				t.Fatal(err)
			}
		}
		if decs[0] != decs[1] || !reflect.DeepEqual(vs[0], vs[1]) {
			t.Fatalf("tick %d: through the fleet %+v %+v, scalar %+v %+v", i, decs[0], vs[0], decs[1], vs[1])
		}
		if decs[0].Abnormal {
			alerts++
		}
	}
	if !fleet.lastValid {
		t.Fatal("the ensemble's tan member never scored through the fleet")
	}
	if alerts == 0 {
		t.Fatal("the ensemble never alerted")
	}
}

// TestFleetLogRatioCacheInvalidation retrains a predictor and checks
// the cached log-ratio table follows the new model.
func TestFleetLogRatioCacheInvalidation(t *testing.T) {
	scalar, batch := trainedPair(t, Config{}, 5)
	fleet := NewFleet()
	if _, err := fleet.ScoreWindow(batch, 120); err != nil {
		t.Fatal(err)
	}
	oldLR := batch.lr
	if oldLR == nil {
		t.Fatal("expected a cached log-ratio table")
	}
	// Retrain both on shifted data: the model pointer changes and the
	// cache must rebuild.
	rng := rand.New(rand.NewSource(31))
	rows := make([][]float64, 120)
	labels := make([]metrics.Label, len(rows))
	for i := range rows {
		row := make([]float64, len(AttributeNames()))
		for j := range row {
			row[j] = 40*math.Cos(float64(i)/9+float64(j)) + rng.Float64()
		}
		rows[i] = row
		labels[i] = metrics.LabelNormal
		if i%7 == 0 {
			labels[i] = metrics.LabelAbnormal
		}
	}
	if err := scalar.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	if err := batch.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	want, _, err := referenceWindow(scalar, 120)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fleet.ScoreWindow(batch, 120)
	if err != nil {
		t.Fatal(err)
	}
	if batch.lr == oldLR {
		t.Fatal("log-ratio cache was not rebuilt after retraining")
	}
	if math.Float64bits(dec.Score) != math.Float64bits(want.Score) {
		t.Fatalf("post-retrain score %v vs %v", dec.Score, want.Score)
	}

	// The in-place case: Retrain refits the model the pointer already
	// names, so only the fit generation tells the cached table it is
	// stale. Stream shifted rows in, Retrain, and the fleet score must
	// equal the reference window of an oracle whose classifier was
	// trained fresh from the same counts.
	inc, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	trace, traceLabels := benchTrace(900, 5)
	if err := inc.TrainIncremental(trace[:600], traceLabels[:600], 24); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.ScoreWindow(inc, 120); err != nil {
		t.Fatal(err)
	}
	model, table := inc.model, inc.lr
	before := model.Snapshot()
	for i := 600; i < len(trace); i++ {
		for j := range trace[i] {
			trace[i][j] += 80 * float64(j%3) // far enough to pass the deviation gate
		}
		if err := inc.Update(trace[i], traceLabels[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Retrain(); err != nil {
		t.Fatal(err)
	}
	if inc.model != model {
		t.Fatal("Retrain replaced the model instead of refitting it in place")
	}
	if reflect.DeepEqual(model.Snapshot(), before) {
		t.Fatal("the shifted rows did not change the fit; the stale table would go unnoticed")
	}
	if ab := inc.inc.ct.ClassCount(true); ab < minAbnormalSupport {
		t.Fatalf("only %v abnormal rows counted: the oracle below does not apply the minimum-support fold", ab)
	}
	fresh, err := bayes.TrainFromCounts(inc.inc.ct, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := *inc
	oracle.model, oracle.lr = fresh, nil
	want, _, err = referenceWindow(&oracle, 120)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = fleet.ScoreWindow(inc, 120)
	if err != nil {
		t.Fatal(err)
	}
	if inc.lr != table {
		t.Fatal("the log-ratio table was reallocated instead of refilled in place")
	}
	if math.Float64bits(dec.Score) != math.Float64bits(want.Score) {
		t.Fatalf("score after in-place retrain %v vs freshly trained oracle %v", dec.Score, want.Score)
	}
}

// TestFleetScoreWindowAllocFree pins the batch scoring path at zero
// steady-state allocations per VM.
func TestFleetScoreWindowAllocFree(t *testing.T) {
	_, batch := trainedPair(t, Config{}, 5)
	fleet := NewFleet()
	if _, err := fleet.ScoreWindow(batch, 120); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := fleet.ScoreWindow(batch, 120); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScoreWindow steady state allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkFleetScoreWindow(b *testing.B) {
	_, batch := trainedPair(b, Config{}, 5)
	fleet := NewFleet()
	if _, err := fleet.ScoreWindow(batch, 120); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.ScoreWindow(batch, 120); err != nil {
			b.Fatal(err)
		}
	}
}
