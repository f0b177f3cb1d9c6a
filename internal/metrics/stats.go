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

// medianSorting returns the middle value of xs, sorting it in place:
// the mean of the two middle values for an even count, 0 for none. It
// is the reference every faster median here must reproduce bit for
// bit.
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
	RobustScaleInto(rows, center, scale, new(RobustFitter))
	return center, scale
}

// RobustFitter is the working memory of the robust fit: FitColumn is
// the fit of one column, and RobustScaleInto feeds it the columns of a
// set of rows. The zero value is ready to use, and a kept RobustFitter
// refits without allocating once it has grown to the longest input.
type RobustFitter struct {
	cols   []float64        // RobustScaleInto's transposed rows
	sorted [SortLen]float64 // the register sort's output
	work   []float64        // selection's working copy of a column
}

// RobustScaleInto is RobustScale writing into caller-owned center and
// scale (each at least as wide as the rows), with f as its working
// memory. It transposes the rows into f, one column per attribute, and
// fits each column with FitColumn. No rows leave center and scale
// untouched.
func RobustScaleInto(rows [][]float64, center, scale []float64, f *RobustFitter) {
	n := len(rows)
	if n == 0 {
		return
	}
	width := len(rows[0])
	if cap(f.cols) < width*n {
		f.cols = make([]float64, width*n)
	}
	cols := f.cols[:width*n]
	transpose(cols, rows, width, n)
	for j := 0; j < width; j++ {
		center[j], scale[j] = f.FitColumn(cols[j*n : (j+1)*n])
	}
}

// transpose writes value j of each row i to cols[j*stride+i]. It is
// kept out of line: inlined into RobustScaleInto, its loop counters
// spill to the stack.
//
//go:noinline
func transpose(cols []float64, rows [][]float64, width, stride int) {
	for i, row := range rows {
		for j, v := range row[:width] {
			cols[j*stride+i] = v
		}
	}
}

// FitColumn returns the center and scale of one column, col holding its
// values in row order: the median, and 1.4826 MAD floored at 1e-9. col
// is only read. Where robustKernel is robustSort, a column of at most
// SortLen values is sorted in registers (fitSorted); a column that
// declines the sort, and every column elsewhere, is fit by selection
// (fitSelect). Both give robustScaleSorting's bits. col holds at least
// one value.
func (f *RobustFitter) FitColumn(col []float64) (center, scale float64) {
	if robustKernel == robustSort && len(col) <= SortLen {
		if c, mad, ok := fitSorted(col, &f.sorted); ok {
			return robust(c, mad)
		}
	}
	return robust(f.fitSelect(col))
}

// robust is a column's center and its scale, 1.4826 MAD floored at
// 1e-9.
func robust(c, mad float64) (center, scale float64) {
	scale = 1.4826 * mad
	if scale < 1e-9 {
		scale = 1e-9
	}
	return c, scale
}

// fitSelect returns col's median and MAD by selection on a copy of it,
// falling back to sorting where selection declines.
func (f *RobustFitter) fitSelect(col []float64) (c, mad float64) {
	if cap(f.work) < len(col) {
		f.work = make([]float64, len(col))
	}
	work := f.work[:len(col)]
	copy(work, col)
	c, ok := selectMedian(work)
	if ok {
		// The deviations hold no -0 (Abs clears the sign) and no NaN
		// (ok rules one out), so selection agrees with sorting them in
		// any order, the sorted one included.
		for i, v := range work {
			work[i] = math.Abs(v - c)
		}
		mad, ok = selectMedian(work)
	}
	if !ok {
		// Either median is order-sensitive: fit the column exactly as
		// sorting always has, deviations taken in sorted order.
		copy(work, col)
		c = medianSorting(work)
		for i, v := range work {
			work[i] = math.Abs(v - c)
		}
		mad = medianSorting(work)
	}
	return c, mad
}

// robustKind names a way FitColumn fits a column.
type robustKind uint8

const (
	robustSelect robustKind = iota // fitSelect, on every machine
	robustSort                     // fitSorted, where sort128AVX512 runs
)

func (k robustKind) String() string { return [...]string{"select", "sort-avx512"}[k] }

// robustKernel is the way FitColumn fits a column of at most 128
// values: decided once from CPUID, the register sort where the CPU and
// OS support AVX-512F, else selection. Tests switch it to run both.
var robustKernel = bestRobustKernel()

func bestRobustKernel() robustKind {
	if sort128Available {
		return robustSort
	}
	return robustSelect
}

// SortLen is the number of values sort128AVX512 sorts: the longest
// column FitColumn sorts in registers.
const SortLen = 128

// fitSorted returns the median and MAD of col, 1 to SortLen values, from
// one register sort into sorted (DESIGN.md, "Sorted robust fit"); col is
// only read. It declines (ok false) where the selection path must decide
// instead: the column holds a NaN, its median is zero and it holds a -0,
// or the median is not finite.
func fitSorted(col []float64, sorted *[SortLen]float64) (c, mad float64, ok bool) {
	n := len(col)
	// The sort pads the column with +Inf: equal values are
	// bit-identical, so the pads sort behind the n values without
	// changing any of them.
	nan, negZero := sort128AVX512(sorted, &col[0], n)
	if nan {
		return 0, 0, false
	}
	s := sorted[:n]
	h := n / 2
	c = s[h]
	if n%2 == 0 {
		c = (s[h-1] + s[h]) / 2
	}
	if (c == 0 && negZero) || c-c != 0 {
		return 0, 0, false
	}
	// s[:h] is at or below c and s[h:] at or above it (a rounded mean of
	// two values lies between them), so the deviations are the two
	// ascending runs c-s[h-1-i] and s[h+i]-c: the bits Abs gives, as
	// rounding is symmetric. The MAD is their middle.
	mad = kthDeviation(s, h, c, n/2)
	if n%2 == 0 {
		mad = (kthDeviation(s, h, c, n/2-1) + mad) / 2
	}
	return c, mad, true
}

// kthDeviation returns the k-th smallest (from 0) of the deviations of
// the sorted s from c, split at h as in fitSorted: a binary search for
// how many of the k+1 smallest come from the run below c.
func kthDeviation(s []float64, h int, c float64, k int) float64 {
	lo, hi := max(0, k+1-(len(s)-h)), min(k+1, h)
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		// Run below's i-th against run above's (k-i)-th.
		if c-s[h-1-i] < s[h+k-i]-c {
			lo = i + 1
		} else {
			hi = i
		}
	}
	// The k+1 smallest are the run below's first lo and the run above's
	// first k+1-lo; the k-th is the larger of their last ones.
	if lo == 0 {
		return s[h+k] - c
	}
	a := c - s[h-lo]
	if lo == k+1 {
		return a
	}
	if b := s[h+k-lo] - c; b > a {
		return b
	}
	return a
}
