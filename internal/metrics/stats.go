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
	if m, ok := selectMedian(cp); ok {
		return m
	}
	copy(cp, xs)
	return medianSorting(cp)
}

// medianSorting is Median over a slice it may sort in place. It is the
// reference selectMedian must reproduce bit for bit.
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

// selectMedian is medianSorting in O(n): a quickselect that reorders xs.
// It declines (ok false, xs reordered) in the two cases where
// medianSorting's bits depend on the input order, because sort.Float64s
// places NaNs and equal-comparing ±0 by position: xs holds a NaN, or
// the median is zero and xs holds a -0. The caller then sorts the
// untouched input. Every other median is an order statistic of values
// whose equal elements are bit-identical, so selection and sorting agree.
func selectMedian(xs []float64) (median float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, true
	}
	negZero := false
	for _, v := range xs {
		if v != v {
			return 0, false
		}
		negZero = negZero || (v == 0 && math.Signbit(v))
	}
	k := n / 2
	m := selectK(xs, k)
	if n%2 == 0 {
		// selectK left xs[:k] at or below xs[k]: the lower middle value is
		// their maximum.
		lo := xs[0]
		for _, v := range xs[1:k] {
			if v > lo {
				lo = v
			}
		}
		m = (lo + m) / 2
	}
	if m == 0 && negZero {
		return 0, false
	}
	return m, true
}

// selectK reorders xs (which holds no NaN) so that xs[k] is its k-th
// smallest value, everything before it is at or below it and everything
// after at or above, and returns xs[k]. Around a median-of-three pivot
// p it makes two branch-free Lomuto passes: the first moves the values
// below p to the front, and only when k lies past them does the second
// move the values equal to p up behind them. A run of equal values — a
// flat metric column — is settled in one round instead of degrading to
// quadratic time, and neither pass branches on the data.
func selectK(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
			if a > b {
				b = a
			}
		}
		p := b
		lt := lo
		for i := lo; i <= hi; i++ {
			v := xs[i]
			xs[i] = xs[lt]
			xs[lt] = v
			below := 0 // a flag set, not a jump, so no branch to mispredict
			if v < p {
				below = 1
			}
			lt += below
		}
		if k < lt {
			hi = lt - 1
			continue
		}
		// xs[lt:hi+1] is all at or above p and holds p itself, so the
		// second pass moves at least one value.
		eq := lt
		for i := lt; i <= hi; i++ {
			v := xs[i]
			xs[i] = xs[eq]
			xs[eq] = v
			equal := 0 // v >= p here, so v <= p means v == p
			if v <= p {
				equal = 1
			}
			eq += equal
		}
		if k < eq {
			return xs[k]
		}
		lo = eq
	}
	return xs[k]
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
	center = make([]float64, len(rows[0]))
	scale = make([]float64, len(rows[0]))
	RobustScaleInto(rows, center, scale, nil)
	return center, scale
}

// RobustScaleInto is RobustScale writing into caller-owned center and
// scale (each at least as wide as the rows) with scratch as its one
// working column. It returns scratch, grown to len(rows) if it was
// shorter, so a caller that keeps it refits without allocating. No rows
// leave center and scale untouched.
func RobustScaleInto(rows [][]float64, center, scale, scratch []float64) []float64 {
	if cap(scratch) < len(rows) {
		scratch = make([]float64, len(rows))
	}
	col := scratch[:len(rows)]
	if len(rows) == 0 {
		return scratch
	}
	for j := range rows[0] {
		for i, row := range rows {
			col[i] = row[j]
		}
		c, ok := selectMedian(col)
		var mad float64
		if ok {
			// The deviations hold no -0 (Abs clears the sign) and no NaN
			// (ok rules one out), so selection agrees with sorting them in
			// any order, the sorted one included.
			for i, v := range col {
				col[i] = math.Abs(v - c)
			}
			mad, ok = selectMedian(col)
		}
		if !ok {
			// Either median is order-sensitive: fit the column exactly as
			// sorting always has, deviations taken in sorted order.
			for i, row := range rows {
				col[i] = row[j]
			}
			c = medianSorting(col)
			for i, v := range col {
				col[i] = math.Abs(v - c)
			}
			mad = medianSorting(col)
		}
		center[j] = c
		scale[j] = 1.4826 * mad
		if scale[j] < 1e-9 {
			scale[j] = 1e-9
		}
	}
	return scratch
}
