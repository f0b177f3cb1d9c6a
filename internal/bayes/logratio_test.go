package bayes

import (
	"math"
	"math/rand"
	"testing"
)

// trainRandomModel builds a TAN (or naive) model over random labeled
// instances.
func trainRandomModel(t testing.TB, rng *rand.Rand, nAttrs, bins int, naive bool) *Model {
	t.Helper()
	binsPer := make([]int, nAttrs)
	for i := range binsPer {
		binsPer[i] = bins
	}
	instances := make([]instance, 160)
	for k := range instances {
		vals := make([]int, nAttrs)
		for i := range vals {
			vals[i] = rng.Intn(bins)
		}
		instances[k] = instance{Bins: vals, Abnormal: rng.Float64() < 0.3}
	}
	m, err := train(instances, binsPer, Options{Naive: naive})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return m
}

// TestMarginalScoreFastBitIdentical checks the log-ratio fast path
// against MarginalScore bit for bit across random marginals, for both
// TAN and naive structures.
func TestMarginalScoreFastBitIdentical(t *testing.T) {
	for _, naive := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		m := trainRandomModel(t, rng, 13, 8, naive)
		lr := m.LogRatios()
		if lr.Model() != m {
			t.Fatal("LogRatios.Model mismatch")
		}
		var scFast Scratch
		marginals := make([][]float64, 13)
		for i := range marginals {
			marginals[i] = make([]float64, 8)
		}
		for round := 0; round < 200; round++ {
			for i := range marginals {
				total := 0.0
				for v := range marginals[i] {
					// Exercise exact zeros too: the pv <= 0 skip must agree.
					x := 0.0
					if rng.Float64() > 0.3 {
						x = rng.Float64()
					}
					marginals[i][v] = x
					total += x
				}
				if total > 0 {
					for v := range marginals[i] {
						marginals[i][v] /= total
					}
				}
			}
			slow, err := m.marginalScore(marginals)
			if err != nil {
				t.Fatalf("MarginalScore: %v", err)
			}
			fast := m.MarginalScoreFast(marginals, lr, &scFast)
			if math.Float64bits(slow) != math.Float64bits(fast) {
				t.Fatalf("naive=%v round %d: slow %v (%#x) vs fast %v (%#x)",
					naive, round, slow, math.Float64bits(slow), fast, math.Float64bits(fast))
			}
		}
	}
}

func BenchmarkMarginalScoreFast(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := trainRandomModel(b, rng, 13, 8, false)
	lr := m.LogRatios()
	var sc Scratch
	marginals := make([][]float64, 13)
	for i := range marginals {
		marginals[i] = make([]float64, 8)
		for v := range marginals[i] {
			marginals[i][v] = rng.Float64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MarginalScoreFast(marginals, lr, &sc)
	}
}
