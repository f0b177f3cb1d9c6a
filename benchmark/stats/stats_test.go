package stats

import (
	"math"
	"testing"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := HighestPercentile(tc.n); got != tc.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.want > 0 && float64(tc.n)*(1-tc.want) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", tc.n, 100*tc.want)
		}
	}
}

func TestPercentileLabel(t *testing.T) {
	for p, want := range map[float64]string{0.5: "50", 0.75: "75", 0.9: "90", 0.99: "99", 0.999: "99.9", 0.9999: "99.99"} {
		if got := PercentileLabel(p); got != want {
			t.Errorf("PercentileLabel(%v) = %q, want %q", p, got, want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := Quantile(s, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of nothing should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is how the driver judges steadiness.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 3.5, 1, 8, 4}, [3]float64{1.75, 3.5, 6}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got, want := Spread([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}), 1.0; got != want {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}
