package bayes

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// instance is one labeled training example: discretized attribute
// values plus the anomaly label.
type instance struct {
	Bins     []int
	Abnormal bool
}

// train fits a model the way every caller outside the tests does:
// count the instances into a fresh CountTable, then fit from the counts.
func train(instances []instance, bins []int, opts Options) (*Model, error) {
	t, err := NewCountTable(bins)
	if err != nil {
		return nil, err
	}
	for _, inst := range instances {
		if err := t.Add(inst.Bins, inst.Abnormal); err != nil {
			return nil, err
		}
	}
	return TrainFromCounts(t, opts)
}

// classify reports whether the observation scores abnormal under
// Equation (1).
func (m *Model) classify(bins []int) (bool, error) {
	score, err := m.Score(bins)
	return score > 0, err
}

// synthData builds a dataset where attribute 0 is strongly predictive
// (value >= 2 ⇒ abnormal), attribute 1 copies attribute 0 (dependency),
// and attribute 2 is pure noise.
func synthData(n int, seed int64) ([]instance, []int) {
	rng := rand.New(rand.NewSource(seed))
	bins := []int{4, 4, 4}
	instances := make([]instance, 0, n)
	for i := 0; i < n; i++ {
		abnormal := rng.Float64() < 0.3
		var a0 int
		if abnormal {
			a0 = 2 + rng.Intn(2)
		} else {
			a0 = rng.Intn(2)
		}
		a1 := a0 // perfectly dependent on a0
		if rng.Float64() < 0.1 {
			a1 = rng.Intn(4)
		}
		a2 := rng.Intn(4)
		instances = append(instances, instance{Bins: []int{a0, a1, a2}, Abnormal: abnormal})
	}
	return instances, bins
}

func TestTrainValidation(t *testing.T) {
	if _, err := train(nil, []int{2}, Options{}); err == nil {
		t.Error("no instances should fail")
	}
	if _, err := train([]instance{{Bins: []int{0}}}, nil, Options{}); err == nil {
		t.Error("empty bins should fail")
	}
	if _, err := train([]instance{{Bins: []int{0}}}, []int{0}, Options{}); err == nil {
		t.Error("zero-bin attribute should fail")
	}
	if _, err := train([]instance{{Bins: []int{0, 1}}}, []int{2}, Options{}); err == nil {
		t.Error("shape mismatch should fail")
	}
	if _, err := train([]instance{{Bins: []int{5}}}, []int{2}, Options{}); err == nil {
		t.Error("out-of-range value should fail")
	}
}

func TestClassifySeparableData(t *testing.T) {
	instances, bins := synthData(500, 1)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, inst := range instances {
		got, err := m.classify(inst.Bins)
		if err != nil {
			t.Fatal(err)
		}
		if got == inst.Abnormal {
			correct++
		}
	}
	acc := float64(correct) / float64(len(instances))
	if acc < 0.9 {
		t.Errorf("training accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestTreeFindsDependency(t *testing.T) {
	instances, bins := synthData(800, 2)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parents := m.Parents()
	// a1 copies a0, so the strongest CMI edge is 0-1: one of them must be
	// the other's parent.
	if !(parents[1] == 0 || parents[0] == 1) {
		t.Errorf("tree should link attributes 0 and 1, parents = %v", parents)
	}
}

func TestParentsFormTree(t *testing.T) {
	instances, bins := synthData(300, 3)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parents := m.Parents()
	roots := 0
	for i, p := range parents {
		if p == -1 {
			roots++
			continue
		}
		if p < 0 || p >= len(parents) || p == i {
			t.Errorf("attribute %d has invalid parent %d", i, p)
		}
	}
	if roots != 1 {
		t.Errorf("tree has %d roots, want 1", roots)
	}
	// Acyclic: walking up from any node reaches the root.
	for i := range parents {
		seen := make(map[int]bool)
		for j := i; j != -1; j = parents[j] {
			if seen[j] {
				t.Fatalf("cycle through attribute %d", j)
			}
			seen[j] = true
		}
	}
}

func TestNaiveHasNoTree(t *testing.T) {
	instances, bins := synthData(300, 4)
	m, err := train(instances, bins, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Parents() {
		if p != -1 {
			t.Errorf("naive model attribute %d has parent %d", i, p)
		}
	}
}

func TestTANBeatsNaiveOnDependentNoise(t *testing.T) {
	// Construct data where naive Bayes double-counts a duplicated
	// attribute: a0 decides the class with some noise, a1 == a0 always,
	// and the duplication misleads naive Bayes on borderline cases.
	rng := rand.New(rand.NewSource(7))
	bins := []int{3, 3, 3}
	var fitSet, test []instance
	for i := 0; i < 1200; i++ {
		abnormal := rng.Float64() < 0.4
		var a0 int
		if abnormal {
			a0 = []int{1, 2, 2}[rng.Intn(3)]
		} else {
			a0 = []int{0, 0, 1}[rng.Intn(3)]
		}
		a1 := a0
		a2 := rng.Intn(3)
		inst := instance{Bins: []int{a0, a1, a2}, Abnormal: abnormal}
		if i < 600 {
			fitSet = append(fitSet, inst)
		} else {
			test = append(test, inst)
		}
	}
	tan, err := train(fitSet, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := train(fitSet, bins, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	accOf := func(m *Model) float64 {
		correct := 0
		for _, inst := range test {
			got, err := m.classify(inst.Bins)
			if err != nil {
				t.Fatal(err)
			}
			if got == inst.Abnormal {
				correct++
			}
		}
		return float64(correct) / float64(len(test))
	}
	tanAcc, naiveAcc := accOf(tan), accOf(naive)
	if tanAcc+0.02 < naiveAcc {
		t.Errorf("TAN (%.3f) should not lose clearly to naive (%.3f) on dependent attributes", tanAcc, naiveAcc)
	}
}

func TestAttributeStrengthRanking(t *testing.T) {
	instances, bins := synthData(800, 5)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// For an abnormal-looking observation, the predictive attribute 0
	// must rank above the pure-noise attribute 2.
	strengths, err := m.AttributeStrengths([]int{3, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(strengths) != 3 {
		t.Fatalf("got %d strengths", len(strengths))
	}
	pos := map[int]int{}
	for rank, s := range strengths {
		pos[s.Attribute] = rank
	}
	if pos[0] > pos[2] {
		t.Errorf("predictive attribute 0 ranked %d, noise attribute 2 ranked %d", pos[0], pos[2])
	}
	// Sorted descending.
	for i := 1; i < len(strengths); i++ {
		if strengths[i-1].L < strengths[i].L {
			t.Error("strengths not sorted descending")
		}
	}
}

func TestSingleClassTrainingClassifiesThatClass(t *testing.T) {
	// All-normal training data must classify everything normal (prior
	// dominates).
	var instances []instance
	for i := 0; i < 100; i++ {
		instances = append(instances, instance{Bins: []int{i % 3, (i + 1) % 3}, Abnormal: false})
	}
	m, err := train(instances, []int{3, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.classify([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("model trained only on normal data should classify normal")
	}
	if m.ClassPrior() >= 0 {
		t.Errorf("class prior = %g, want negative", m.ClassPrior())
	}
}

func TestClassifyShapeErrors(t *testing.T) {
	instances, bins := synthData(100, 8)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.classify([]int{1}); err == nil {
		t.Error("wrong width should fail")
	}
	if _, err := m.classify([]int{9, 0, 0}); err == nil {
		t.Error("out-of-range should fail")
	}
	if _, err := m.AttributeStrengths([]int{1}); err == nil {
		t.Error("strengths with wrong width should fail")
	}
}

func TestSingleAttributeModel(t *testing.T) {
	var instances []instance
	for i := 0; i < 200; i++ {
		abnormal := i%4 == 0
		v := 0
		if abnormal {
			v = 1
		}
		instances = append(instances, instance{Bins: []int{v}, Abnormal: abnormal})
	}
	m, err := train(instances, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.classify([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("value perfectly correlated with abnormal should classify abnormal")
	}
}

func TestPropertyCPTsAreDistributions(t *testing.T) {
	f := func(seed int64) bool {
		instances, bins := synthData(120, seed)
		m, err := train(instances, bins, Options{})
		if err != nil {
			return false
		}
		for i := range m.cpt {
			for c := 0; c < 2; c++ {
				for _, row := range m.cpt[i][c] {
					sum := 0.0
					for _, p := range row {
						if p <= 0 || p > 1 {
							return false
						}
						sum += p
					}
					if sum < 0.999 || sum > 1.001 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
