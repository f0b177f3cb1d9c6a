package predict

import (
	"fmt"
	"math/rand"
	"testing"

	"prepare/internal/metrics"
)

// benchTrace synthesizes a labeled 13-attribute trace the shape the
// controller trains on: one attribute (free_mem) declines into the
// anomaly while the rest are stationary noise.
func benchTrace(n int, seed int64) ([][]float64, []metrics.Label) {
	names := AttributeNames()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	labels := make([]metrics.Label, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(names))
		for j := range row {
			row[j] = 100 + 10*rng.NormFloat64()
		}
		free := 1000 - float64(i)*(1000/float64(n))
		row[3] = free * (1 + 0.02*rng.NormFloat64()) // free_mem declines
		rows[i] = row
		if free < 250 {
			labels[i] = metrics.LabelAbnormal
		} else {
			labels[i] = metrics.LabelNormal
		}
	}
	return rows, labels
}

// benchPredictor returns a trained full-width (13-attribute) predictor,
// the per-VM model the control loop queries every sampling tick.
func benchPredictor(b *testing.B) *Predictor {
	b.Helper()
	p, err := New(Config{}, AttributeNames())
	if err != nil {
		b.Fatal(err)
	}
	rows, labels := benchTrace(600, 1)
	if err := p.Train(rows, labels); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPredictWindow is the acceptance benchmark pinning one
// standalone window prediction with telemetry disabled: the window
// scored through the predictor's own Fleet and its worst step
// materialized, held by TestPredictWindowAllocBudget. The predictor
// carries zero instruments here, so this also pins the
// disabled-telemetry overhead at nothing but nil checks.
func BenchmarkPredictWindow(b *testing.B) {
	p := benchPredictor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictWindow(120); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictWindowAllocBudget pins BenchmarkPredictWindow's allocation
// budget inside the regular test run, so a hot-path regression fails
// `go test` directly.
func TestPredictWindowAllocBudget(t *testing.T) {
	p, err := New(Config{}, AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	rows, labels := benchTrace(600, 1)
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	const budget = 6 // the verdict: future bins, strengths, the argmax scratch and the ranking
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.PredictWindow(120); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("PredictWindow allocates %.1f/op, budget %d", allocs, budget)
	}
}

// incrementalAtHistory trains a predictor on the first 600 rows of a
// hist-row trace and streams the remainder through Update, leaving it
// ready for a Retrain whose cost the caller measures.
func incrementalAtHistory(tb testing.TB, hist int) *Predictor {
	tb.Helper()
	rows, labels := benchTrace(hist, 1)
	p, err := New(Config{}, AttributeNames())
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.TrainIncremental(rows[:600], labels[:600], 24); err != nil {
		tb.Fatal(err)
	}
	for i := 600; i < hist; i++ {
		if err := p.Update(rows[i], labels[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// benchHistories are the trace lengths the retrain benchmarks sweep: a
// 10x spread so the O(history) batch refit and the O(attrs²·bins²)
// incremental rebuild separate unmistakably.
var benchHistories = []int{1000, 10000}

// BenchmarkRetrainIncremental measures one periodic model update on the
// incremental path: rebuild the Chow-Liu tree and CPTs from the
// accumulated count table. The cost must not grow with history length —
// compare hist=1000 against hist=10000.
func BenchmarkRetrainIncremental(b *testing.B) {
	for _, hist := range benchHistories {
		b.Run(fmt.Sprintf("hist=%d", hist), func(b *testing.B) {
			p := incrementalAtHistory(b, hist)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Retrain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRetrainBatch measures what the control loop used to do at
// every retrain deadline: relabel the full history and refit the
// predictor from scratch — O(history) per retrain, O(history²)
// cumulative over a run.
func BenchmarkRetrainBatch(b *testing.B) {
	for _, hist := range benchHistories {
		b.Run(fmt.Sprintf("hist=%d", hist), func(b *testing.B) {
			rows, labels := benchTrace(hist, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lbl := append([]metrics.Label(nil), labels...)
				p, err := New(Config{}, AttributeNames())
				if err != nil {
					b.Fatal(err)
				}
				RelabelForTraining(rows, lbl, 24)
				if err := p.Train(rows, lbl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRetrainCostIndependentOfHistory asserts the tentpole complexity
// claim inside the regular test run, using allocations as the
// deterministic proxy for work: a Retrain after 10x the streamed
// history must cost the same, not 10x.
func TestRetrainCostIndependentOfHistory(t *testing.T) {
	measure := func(hist int) float64 {
		p := incrementalAtHistory(t, hist)
		return testing.AllocsPerRun(20, func() {
			if err := p.Retrain(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := measure(1000), measure(10000)
	if long > 2*short {
		t.Errorf("Retrain at 10x history allocates %.0f vs %.0f — not history-independent", long, short)
	}
}
