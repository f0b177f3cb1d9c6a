package bayes

import "testing"

// marginalScore is the reference Equation (1) expected score that
// MarginalScoreFast and the fleet window kernel are pinned against: the
// prior plus each attribute's expected log ratio under its marginal,
// every log ratio computed from the CPTs afresh.
func (m *Model) marginalScore(marginals [][]float64) (float64, error) {
	argmax, err := m.checkMarginals(marginals)
	if err != nil {
		return 0, err
	}
	score := m.ClassPrior()
	for i := 0; i < m.numAttrs; i++ {
		score += m.expectedStrength(marginals, argmax, i)
	}
	return score, nil
}

func marginalTestModel(t *testing.T) (*Model, [][]float64) {
	t.Helper()
	instances := []instance{
		{Bins: []int{0, 1, 2}, Abnormal: false},
		{Bins: []int{1, 1, 2}, Abnormal: false},
		{Bins: []int{0, 0, 1}, Abnormal: false},
		{Bins: []int{3, 3, 0}, Abnormal: true},
		{Bins: []int{3, 2, 0}, Abnormal: true},
	}
	m, err := train(instances, []int{4, 4, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	marginals := [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{0.25, 0.25, 0.25, 0.25},
		{0.6, 0.3, 0.1},
	}
	return m, marginals
}

func TestMarginalScoreMatchesScoreMarginals(t *testing.T) {
	m, marginals := marginalTestModel(t)
	wantScore, _, err := m.ScoreMarginals(marginals)
	if err != nil {
		t.Fatal(err)
	}
	score, err := m.marginalScore(marginals)
	if err != nil {
		t.Fatal(err)
	}
	if score != wantScore {
		t.Fatalf("MarginalScore = %v, ScoreMarginals = %v", score, wantScore)
	}
	if fast := m.MarginalScoreFast(marginals, m.LogRatios(), &Scratch{}); fast != wantScore {
		t.Fatalf("MarginalScoreFast = %v, ScoreMarginals = %v", fast, wantScore)
	}
}

func TestMarginalScoreShapeErrors(t *testing.T) {
	m, marginals := marginalTestModel(t)
	if _, err := m.marginalScore(nil); err == nil {
		t.Error("nil marginals accepted")
	}
	bad := [][]float64{marginals[0], marginals[1], {0.5, 0.5}}
	if _, err := m.marginalScore(bad); err == nil {
		t.Error("wrong bin count accepted")
	}
}
