// Package stats holds the benchmark's order statistics: the percentile
// rule the guide prescribes, medians, and the quartile spread the
// driver judges steadiness by.
package stats

import (
	"math"
	"sort"
	"strconv"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between closest ranks; NaN for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Median returns the median of xs (any order).
func Median(xs []float64) float64 { return Quantile(Sorted(xs), 0.5) }

// tailLadder lists the tail percentiles a report may quote, highest
// first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// minBeyond is how many samples must lie beyond a percentile for it to
// be quoted.
const minBeyond = 10

// HighestPercentile returns the highest percentile of the ladder that
// has at least ten samples beyond it in a sample of size n, or 0 when
// even the lowest rung does not (the report then quotes the median
// only).
func HighestPercentile(n int) float64 {
	for _, p := range tailLadder {
		if Supported(n, p) {
			return p
		}
	}
	return 0
}

// PercentileLabel names a percentile the way metric names spell it:
// 0.9 is "90", 0.999 is "99.9".
func PercentileLabel(p float64) string {
	return strconv.FormatFloat(math.Round(p*1e6)/1e4, 'f', -1, 64)
}

// Supported reports whether a sample of size n has at least ten samples
// beyond percentile p.
func Supported(n int, p float64) bool {
	// 1-p is not exact in binary (100*(1-0.9) is a hair under 10).
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// Quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method): the three cut points of xs, which needs at least
// two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		// j + delta/4 is the 1-based exclusive rank i*(n+1)/4.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the driver's steadiness measure: the distance between the
// first and third quartile as a share of the median.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
