package markov

import (
	"math/rand"
	"testing"
)

// benchSeq is a 600-observation sequence over 8 bins, the shape of one
// attribute's training window in PREPARE.
func benchSeq(b *testing.B) []int {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	seq := make([]int, 600)
	cur := 0
	for i := range seq {
		// Random walk with occasional jumps, so transitions are dense
		// enough that propagation touches most states.
		switch rng.Intn(4) {
		case 0:
			cur++
		case 1:
			cur--
		case 2:
			cur = rng.Intn(8)
		}
		if cur < 0 {
			cur = 0
		}
		if cur > 7 {
			cur = 7
		}
		seq[i] = cur
	}
	return seq
}

func benchmarkPredictSeries(b *testing.B, p Predictor) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := p.PredictSeries(24) // 120 s lookahead at 5 s sampling
		if len(series) != 24 {
			b.Fatalf("got %d distributions", len(series))
		}
	}
}

func BenchmarkSimpleChainPredictSeries(b *testing.B) {
	c, err := NewSimpleChain(8)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Fit(benchSeq(b)); err != nil {
		b.Fatal(err)
	}
	benchmarkPredictSeries(b, c)
}

func BenchmarkTwoDepChainPredictSeries(b *testing.B) {
	c, err := NewTwoDepChain(8)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Fit(benchSeq(b)); err != nil {
		b.Fatal(err)
	}
	benchmarkPredictSeries(b, c)
}

// BenchmarkPredictSeries is the acceptance benchmark pinning the
// 2-dependent chain's series-prediction allocation budget (2 allocs/op:
// the returned slice-of-rows header block plus the backing array). It
// runs with telemetry disabled, so it also pins the cost of the
// uninstalled timing hook; TestPredictSeriesAllocBudget holds the budget.
func BenchmarkPredictSeries(b *testing.B) {
	c, err := NewTwoDepChain(8)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Fit(benchSeq(b)); err != nil {
		b.Fatal(err)
	}
	benchmarkPredictSeries(b, c)
}

// TestPredictSeriesAllocBudget pins BenchmarkPredictSeries' allocation
// budget inside the regular test run (2 allocs/op: the returned
// slice-of-rows header block plus the backing array), so a regression
// fails `go test` directly.
func TestPredictSeriesAllocBudget(t *testing.T) {
	c, err := NewTwoDepChain(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seq := make([]int, 600)
	for i := range seq {
		seq[i] = rng.Intn(8)
	}
	if err := c.Fit(seq); err != nil {
		t.Fatal(err)
	}
	const budget = 2
	allocs := testing.AllocsPerRun(500, func() {
		if series := c.PredictSeries(24); len(series) != 24 {
			t.Fatal("bad series length")
		}
	})
	if allocs > budget {
		t.Errorf("PredictSeries allocates %.1f/op, budget %d", allocs, budget)
	}
}

// BenchmarkTwoDepChainObserveThenPredict exercises the online loop the
// controller runs every sampling tick: one observation followed by one
// full series prediction (so per-call caches are invalidated each time,
// as in production).
func BenchmarkTwoDepChainObserveThenPredict(b *testing.B) {
	c, err := NewTwoDepChain(8)
	if err != nil {
		b.Fatal(err)
	}
	seq := benchSeq(b)
	if err := c.Fit(seq); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Observe(seq[i%len(seq)]); err != nil {
			b.Fatal(err)
		}
		c.PredictSeries(24)
	}
}
