package predict

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"prepare/internal/detector"
	"prepare/internal/metrics"
)

// stationaryRows is a stationary normal phase only (no anomaly in
// training!); the tests replay a decline into unseen territory after it.
func stationaryRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{
			1000 + 25*rng.NormFloat64(), // free memory
			45 + 4*rng.NormFloat64(),    // cpu
		}
	}
	return rows
}

// twoModeRows synthesizes two operating modes (low load / high load)
// with mild noise — the kind of multi-modal "normal" that defeats a
// single-centroid model but not k-means.
func twoModeRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		mode := float64(i % 2)
		rows[i] = []float64{
			40 + 30*mode + 2*rng.NormFloat64(),   // cpu
			500 - 100*mode + 8*rng.NormFloat64(), // free mem
			200 + 150*mode + 5*rng.NormFloat64(), // net
		}
	}
	return rows
}

// anomalyRow is a state far outside both modes: pegged CPU, exhausted
// memory.
func anomalyRow() []float64 { return []float64{98, 30, 60} }

func (s *outlierScorer) anomalous(row []float64) bool { return s.score(row) > s.threshold }

// trainedOutlier trains a detector of the kind over two named columns.
func trainedOutlier(t *testing.T, kind string, cfg Config, rows [][]float64) *outlierDetector {
	t.Helper()
	d, err := NewDetector(detector.Spec{Kind: kind}, DetectorOptions{Names: []string{"free", "cpu"}, Config: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(rows, nil); err != nil {
		t.Fatal(err)
	}
	if !d.Trained() {
		t.Fatal("not trained")
	}
	return d.(*outlierDetector)
}

func TestUnsupervisedValidation(t *testing.T) {
	if _, err := NewDetector(detector.Spec{Kind: detector.KindKMeans}, DetectorOptions{}); err == nil {
		t.Error("no columns should fail")
	}
	bad, err := NewDetector(detector.Spec{Kind: detector.KindKMeans}, DetectorOptions{Names: []string{"a"}, Config: Config{Order: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Train([][]float64{{1}, {2}}, nil); err == nil {
		t.Error("bad order should fail")
	}
	d, err := NewDetector(detector.Spec{Kind: detector.KindKMeans}, DetectorOptions{Names: []string{"a", "b"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(nil, nil); !errors.Is(err, ErrNoData) {
		t.Errorf("no data: err = %v, want ErrNoData", err)
	}
	if err := d.Train([][]float64{{1}}, nil); !errors.Is(err, ErrShape) {
		t.Errorf("wrong-width rows: err = %v, want ErrShape", err)
	}
	if d.Trained() {
		t.Error("failed Train left the detector trained")
	}
	if _, err := d.Score(60); err != ErrNotTrained {
		t.Error("untrained Score should fail")
	}
	if _, err := d.Current([]float64{1, 2}); err != ErrNotTrained {
		t.Error("untrained Current should fail")
	}
	if err := d.Observe([]float64{1, 2}); err != ErrNotTrained {
		t.Error("untrained Observe should fail")
	}
	if _, err := d.Verdict(); err == nil {
		t.Error("Verdict without a preceding Score should fail")
	}
}

func TestUnsupervisedDetectsUnseenAnomaly(t *testing.T) {
	// Train ONLY on normal data: the anomaly below is unseen.
	d := trainedOutlier(t, detector.KindKMeans, Config{Bins: 10}, stationaryRows(240, 2))
	// Replay a decline into exhaustion.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		free := 1000 - 5*float64(i) + 20*rng.NormFloat64()
		cpu := 45 + (1000-free)*0.05 + 3*rng.NormFloat64()
		if err := d.Observe([]float64{free, cpu}); err != nil {
			t.Fatal(err)
		}
		dec, err := d.Score(60)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Abnormal {
			return
		}
	}
	t.Error("kmeans never flagged the unseen anomaly")
}

func TestUnsupervisedQuietOnNormalReplay(t *testing.T) {
	d := trainedOutlier(t, detector.KindKMeans, Config{Bins: 10}, stationaryRows(240, 4))
	falseAlarms := 0
	for _, row := range stationaryRows(200, 5) {
		if err := d.Observe(row); err != nil {
			t.Fatal(err)
		}
		dec, err := d.Score(15) // three steps ahead
		if err != nil {
			t.Fatal(err)
		}
		if dec.Abnormal {
			falseAlarms++
		}
	}
	if falseAlarms > 10 {
		t.Errorf("%d/200 false alarms on a normal replay", falseAlarms)
	}
}

// TestOutlierVerdictShape checks the materialized outcomes: Score
// is non-negative, Verdict and Current rank every attribute (zero
// contributions included), strongest first and in column order on ties.
// The training rows are one repeated state, so every centroid sits on
// it and an attribute at its trained value contributes exactly zero.
func TestOutlierVerdictShape(t *testing.T) {
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{1000, 45}
	}
	d := trainedOutlier(t, detector.KindKMeans, Config{Bins: 6}, rows)
	if err := d.Observe([]float64{1000, 90}); err != nil { // cpu far out, free memory typical
		t.Fatal(err)
	}
	dec, err := d.Score(20)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Score < 0 || dec.LeadSteps != 0 {
		t.Errorf("decision = %+v", dec)
	}
	v, err := d.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Abnormal || v.Score != dec.Score {
		t.Errorf("verdict = %+v, decision = %+v", v, dec)
	}
	if len(v.Strengths) != 2 || v.Strengths[0].Attribute != 1 || v.Strengths[0].L <= 0 || v.Strengths[1].L != 0 {
		t.Errorf("strengths = %+v, want cpu first and the zero-weight attribute kept", v.Strengths)
	}
	cur, err := d.Current([]float64{1000, 45})
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Strengths) != 2 || cur.Strengths[0].Attribute != 0 || cur.Strengths[1].Attribute != 1 {
		t.Errorf("all-zero strengths = %+v, want column order", cur.Strengths)
	}
	if _, err := d.Current([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("wrong-width Current: err = %v, want ErrShape", err)
	}
}

// TestSupervisedBlindVsUnsupervised documents the limitation the
// unsupervised extension addresses (paper Section V): a TAN trained only
// on normal data never classifies anything abnormal (the class prior
// dominates), while the outlier detector trained on the same data flags
// the unseen anomaly.
func TestSupervisedBlindVsUnsupervised(t *testing.T) {
	rows := stationaryRows(240, 7)
	labels := make([]metrics.Label, len(rows))
	for i := range labels {
		labels[i] = metrics.LabelNormal
	}
	sup, err := New(Config{Bins: 10}, []string{"free", "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	uns := trainedOutlier(t, detector.KindKMeans, Config{Bins: 10}, rows)

	extreme := []float64{30, 99} // memory exhausted, CPU pegged — unseen
	supAbnormal, err := sup.ClassifyCurrent(extreme)
	if err != nil {
		t.Fatal(err)
	}
	if supAbnormal {
		t.Error("supervised model with no abnormal training data should stay silent")
	}
	if !uns.sc.anomalous(extreme) {
		t.Error("unsupervised detector should flag the unseen extreme state")
	}
}

func TestTrainKMeansValidation(t *testing.T) {
	d, err := NewDetector(detector.Spec{Kind: detector.KindKMeans}, DetectorOptions{Names: []string{"cpu", "free", "net"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(nil, nil); err == nil {
		t.Error("no data should fail")
	}
	// More clusters than rows clamps rather than fails.
	if err := d.Train(twoModeRows(3, 1), nil); err != nil {
		t.Errorf("k > n should clamp: %v", err)
	}
}

func TestKMeansFlagsUnseenAnomaly(t *testing.T) {
	s := trainOutlierScorer(twoModeRows(300, 2), 1)
	if !s.anomalous(anomalyRow()) {
		t.Errorf("unseen anomaly not flagged (score %.2f, threshold %.2f)", s.score(anomalyRow()), s.threshold)
	}
}

func TestKMeansAcceptsNormalModes(t *testing.T) {
	s := trainOutlierScorer(twoModeRows(300, 3), 1)
	falseAlarms := 0
	for _, row := range twoModeRows(200, 4) {
		if s.anomalous(row) {
			falseAlarms++
		}
	}
	if falseAlarms > 10 { // 5%
		t.Errorf("%d/200 false alarms on fresh normal data", falseAlarms)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	rows := twoModeRows(100, 5)
	a := trainOutlierScorer(rows, 7)
	b := trainOutlierScorer(rows, 7)
	if sa, sb := a.score(anomalyRow()), b.score(anomalyRow()); sa != sb {
		t.Errorf("same seed, different scores: %g vs %g", sa, sb)
	}
}

// TestKMeansShapeErrors: rows reach the scorer only through the
// detector, which rejects a wrong width on every entry point.
func TestKMeansShapeErrors(t *testing.T) {
	d, err := NewDetector(detector.Spec{Kind: detector.KindKMeans}, DetectorOptions{Names: []string{"cpu", "free", "net"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(twoModeRows(50, 6), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Observe([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("short row: err = %v, want ErrShape", err)
	}
	if err := d.Update([]float64{1, 2, 3, 4}, metrics.LabelNormal); !errors.Is(err, ErrShape) {
		t.Errorf("long row: err = %v, want ErrShape", err)
	}
	if _, err := d.Current([]float64{1, 2, 3, 4}); !errors.Is(err, ErrShape) {
		t.Errorf("long row: err = %v, want ErrShape", err)
	}
}

func TestKMeansCentroidCount(t *testing.T) {
	if s := trainOutlierScorer(twoModeRows(100, 8), 2); len(s.centroids) != kmeansK {
		t.Errorf("centroids = %d, want %d", len(s.centroids), kmeansK)
	}
	if s := trainOutlierScorer(twoModeRows(3, 8), 2); len(s.centroids) != 3 {
		t.Errorf("centroids = %d, want the 3 rows", len(s.centroids))
	}
}

func TestPropertyScoresNonNegative(t *testing.T) {
	km := trainOutlierScorer(twoModeRows(100, 13), 3)
	f := func(a, b, c float64) bool {
		row := []float64{clampF(a), clampF(b), clampF(c)}
		return km.score(row) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampF(v float64) float64 {
	switch {
	case v != v: // NaN
		return 0
	case v > 1e12:
		return 1e12
	case v < -1e12:
		return -1e12
	default:
		return v
	}
}

func TestMedianAndQuantile(t *testing.T) {
	// The detector's centers are RobustScale's column medians.
	if c, _ := metrics.RobustScale([][]float64{{3}, {1}, {2}}); c[0] != 2 {
		t.Errorf("median odd = %g", c[0])
	}
	if c, _ := metrics.RobustScale([][]float64{{4}, {1}, {2}, {3}}); c[0] != 2.5 {
		t.Errorf("median even = %g", c[0])
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := quantile(xs, 1); got != 10 {
		t.Errorf("q1 = %g", got)
	}
	if got := quantile(xs, 0.5); got < 5 || got > 6 {
		t.Errorf("q0.5 = %g", got)
	}
}
