package metrics

import (
	"math"
	"slices"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty summary = %+v, want zeros", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 {
		t.Errorf("Count = %d, want 8", s.Count)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %g, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("Std = %g, want 2", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Mean != 42 || s.Std != 0 || s.Min != 42 || s.Max != 42 {
		t.Errorf("single-value summary = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 2, 3}, 2.5}, {nil, 0}} {
		if got := medianSorting(slices.Clone(tc.xs)); got != tc.want {
			t.Errorf("medianSorting(%v) = %g, want %g", tc.xs, got, tc.want)
		}
		if got, ok := selectMedian(slices.Clone(tc.xs)); !ok || got != tc.want {
			t.Errorf("selectMedian(%v) = %g, %v, want %g", tc.xs, got, ok, tc.want)
		}
	}
}

func TestRobustScale(t *testing.T) {
	// Column 0 has an outlier a mean/std baseline would chase; column 1
	// is flat and must get the floor, not a zero scale.
	rows := [][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}, {1000, 7}}
	center, scale := RobustScale(rows)
	if center[0] != 3 || center[1] != 7 {
		t.Errorf("center = %v, want [3 7]", center)
	}
	if want := 1.4826 * 1; scale[0] != want { // |dev| = 2,1,0,1,997 → MAD 1
		t.Errorf("scale[0] = %g, want %g", scale[0], want)
	}
	if scale[1] != 1e-9 {
		t.Errorf("flat column scale = %g, want the 1e-9 floor", scale[1])
	}
	if c, s := RobustScale(nil); c != nil || s != nil {
		t.Errorf("no rows: %v, %v, want nil slices", c, s)
	}
	// A column of NaNs stays NaN rather than being floored into a
	// baseline that looks usable.
	_, scale = RobustScale([][]float64{{math.NaN()}, {math.NaN()}, {math.NaN()}})
	if !math.IsNaN(scale[0]) {
		t.Errorf("NaN column scale = %g, want NaN", scale[0])
	}
}
