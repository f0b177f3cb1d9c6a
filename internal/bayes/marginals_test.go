package bayes

import (
	"math"
	"testing"
)

func pointMass(bins, at int) []float64 {
	d := make([]float64, bins)
	d[at] = 1
	return d
}

func TestScoreMarginalsMatchesPointScore(t *testing.T) {
	instances, bins := synthData(400, 11)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With point-mass marginals, the expected score equals the plain
	// Equation (1) score.
	obs := []int{3, 3, 1}
	margs := make([][]float64, len(bins))
	for i := range margs {
		margs[i] = pointMass(bins[i], obs[i])
	}
	expScore, strengths, err := m.ScoreMarginals(margs)
	if err != nil {
		t.Fatal(err)
	}
	pointScore, err := m.Score(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(expScore-pointScore) > 1e-9 {
		t.Errorf("point-mass expected score %g != plain score %g", expScore, pointScore)
	}
	if len(strengths) != len(bins) {
		t.Errorf("got %d strengths", len(strengths))
	}
}

func TestScoreMarginalsInterpolates(t *testing.T) {
	instances, bins := synthData(400, 12)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	normal := []int{0, 0, 1}
	abnormal := []int{3, 3, 1}
	scoreN, err := m.Score(normal)
	if err != nil {
		t.Fatal(err)
	}
	scoreA, err := m.Score(abnormal)
	if err != nil {
		t.Fatal(err)
	}
	if scoreN >= scoreA {
		t.Fatalf("fixture broken: normal %g >= abnormal %g", scoreN, scoreA)
	}
	// A 50/50 mixture on attribute 0 (the discriminative one) must land
	// strictly between the two point scores when the other attributes sit
	// at the abnormal observation.
	margs := [][]float64{
		{0.5, 0, 0, 0.5},
		pointMass(4, 3),
		pointMass(4, 1),
	}
	mixed, _, err := m.ScoreMarginals(margs)
	if err != nil {
		t.Fatal(err)
	}
	pureAb, _, err := m.ScoreMarginals([][]float64{
		pointMass(4, 3), pointMass(4, 3), pointMass(4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed >= pureAb {
		t.Errorf("mixed marginal score %g should be below pure abnormal %g", mixed, pureAb)
	}
}

func TestScoreMarginalsShapeErrors(t *testing.T) {
	instances, bins := synthData(100, 13)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ScoreMarginals(nil); err == nil {
		t.Error("nil marginals should fail")
	}
	if _, _, err := m.ScoreMarginals([][]float64{{1}, {1}, {1}}); err == nil {
		t.Error("wrong-width marginals should fail")
	}
	bad := [][]float64{pointMass(4, 0), pointMass(4, 0), {0.5, 0.5}}
	if _, _, err := m.ScoreMarginals(bad); err == nil {
		t.Error("wrong bin count should fail")
	}
}

func TestScoreMarginalsStrengthsSorted(t *testing.T) {
	instances, bins := synthData(300, 14)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	margs := [][]float64{
		{0.2, 0.2, 0.3, 0.3},
		{0.25, 0.25, 0.25, 0.25},
		{0.7, 0.1, 0.1, 0.1},
	}
	_, strengths, err := m.ScoreMarginals(margs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(strengths); i++ {
		if strengths[i-1].L < strengths[i].L {
			t.Error("strengths not sorted descending")
		}
	}
}
