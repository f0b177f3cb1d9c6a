package metrics

import (
	"math"
	"sort"
)

// Summary holds basic descriptive statistics for a sequence of values.
type Summary struct {
	Count int
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
}

// Summarize computes count, mean, (population) standard deviation, min
// and max of values. An empty input yields a zero Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{
		Count: len(values),
		Min:   values[0],
		Max:   values[0],
	}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(values)))
	return s
}

// MeanVector averages each attribute across the given samples. An empty
// input yields the zero vector.
func MeanVector(samples []Sample) Vector {
	var out Vector
	if len(samples) == 0 {
		return out
	}
	for _, sm := range samples {
		for i := range out {
			out[i] += sm.Values[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(samples))
	}
	return out
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Median returns the middle value of xs: the mean of the two middle
// values for an even count, 0 for none. The input is not reordered.
func Median(xs []float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return medianSorting(cp)
}

// medianSorting is Median over a slice it may sort in place.
func medianSorting(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// RobustScale fits the per-column robust baseline every detector's
// normalization uses: center is each column's median and scale is
// 1.4826 times the median absolute deviation (the factor that makes MAD
// estimate a normal distribution's standard deviation), floored at 1e-9
// so a flat column cannot divide by zero. A mean/std baseline would be
// dragged by the very drift the detectors look for. Rows must share
// the width of rows[0]; no rows yield nil slices.
func RobustScale(rows [][]float64) (center, scale []float64) {
	if len(rows) == 0 {
		return nil, nil
	}
	nCols := len(rows[0])
	center = make([]float64, nCols)
	scale = make([]float64, nCols)
	col := make([]float64, len(rows)) // one scratch column, sorted in place
	for j := 0; j < nCols; j++ {
		for i, row := range rows {
			col[i] = row[j]
		}
		center[j] = medianSorting(col)
		for i, v := range col {
			col[i] = math.Abs(v - center[j])
		}
		scale[j] = 1.4826 * medianSorting(col)
		if scale[j] < 1e-9 {
			scale[j] = 1e-9
		}
	}
	return center, scale
}
