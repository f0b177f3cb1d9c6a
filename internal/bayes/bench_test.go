package bayes

import (
	"math/rand"
	"testing"
)

// benchModel trains a 13-attribute, 8-bin model — the shape of PREPARE's
// per-VM classifier — and returns marginals resembling a Markov
// predictor's output.
func benchModel(b testing.TB) (*Model, [][]float64, []int) {
	b.Helper()
	const attrs, bins = 13, 8
	rng := rand.New(rand.NewSource(1))
	binsPer := make([]int, attrs)
	for j := range binsPer {
		binsPer[j] = bins
	}
	instances := make([]instance, 600)
	for i := range instances {
		vals := make([]int, attrs)
		for j := range vals {
			vals[j] = rng.Intn(bins)
		}
		instances[i] = instance{Bins: vals, Abnormal: i%5 == 0}
	}
	m, err := train(instances, binsPer, Options{})
	if err != nil {
		b.Fatal(err)
	}
	marginals := make([][]float64, attrs)
	obs := make([]int, attrs)
	for j := range marginals {
		dist := make([]float64, bins)
		total := 0.0
		for v := range dist {
			dist[v] = rng.Float64()
			total += dist[v]
		}
		for v := range dist {
			dist[v] /= total
		}
		marginals[j] = dist
		obs[j] = rng.Intn(bins)
	}
	return m, marginals, obs
}

func BenchmarkScoreMarginals(b *testing.B) {
	m, marginals, _ := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ScoreMarginals(marginals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarginalScore(b *testing.B) {
	m, marginals, _ := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.marginalScore(marginals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttributeStrengths(b *testing.B) {
	m, _, obs := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AttributeStrengths(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScoringAllocs pins the allocation count of each scoring path the
// benchmarks above time: the materializing scores allocate what they
// return, and the per-step score through the log-ratio table nothing.
func TestScoringAllocs(t *testing.T) {
	m, marginals, obs := benchModel(t)
	lr := m.LogRatios()
	var sc Scratch
	for _, c := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"ScoreMarginals", 5, func() error {
			_, _, err := m.ScoreMarginals(marginals)
			return err
		}},
		{"AttributeStrengths", 4, func() error {
			_, err := m.AttributeStrengths(obs)
			return err
		}},
		{"MarginalScoreFast", 0, func() error {
			m.MarginalScoreFast(marginals, lr, &sc)
			return nil
		}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s allocates %v/op, want <= %v", c.name, allocs, c.max)
		}
	}
}
