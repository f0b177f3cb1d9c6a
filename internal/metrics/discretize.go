package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoData is returned when a discretizer is fitted on an empty dataset.
var ErrNoData = errors.New("metrics: cannot fit discretizer on empty data")

// EqualWidth maps a continuous attribute value onto one of a fixed number
// of uniformly sized bins across the fitted value range. Both Markov
// value prediction and the TAN classifier operate on discretized
// attribute values, as in the paper (Figure 2 shows an attribute
// discretized into three single states).
type EqualWidth struct {
	lo, hi float64
	bins   int
}

// NewEqualWidth fits an equal-width discretizer with the given number of
// bins over the observed range of values.
func NewEqualWidth(values []float64, bins int) (*EqualWidth, error) {
	if bins < 1 {
		return nil, fmt.Errorf("metrics: bins %d must be >= 1", bins)
	}
	if len(values) == 0 {
		return nil, ErrNoData
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		// A constant attribute: widen the range slightly so every value
		// lands in a well-defined single bin.
		hi = lo + 1
	}
	return &EqualWidth{lo: lo, hi: hi, bins: bins}, nil
}

// NewEqualWidthRange builds an equal-width discretizer over an explicit
// [lo, hi] range, useful when the physical range of a metric is known
// (e.g., CPU utilization in [0, 100]).
func NewEqualWidthRange(lo, hi float64, bins int) (*EqualWidth, error) {
	if bins < 1 {
		return nil, fmt.Errorf("metrics: bins %d must be >= 1", bins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("metrics: range [%g, %g] must be increasing", lo, hi)
	}
	return &EqualWidth{lo: lo, hi: hi, bins: bins}, nil
}

// Bin returns the 0-based bin index for the value. Values outside the
// fitted range clamp to the first or last bin; NaN maps to bin 0.
func (d *EqualWidth) Bin(value float64) int {
	if math.IsNaN(value) {
		return 0
	}
	if value <= d.lo {
		return 0
	}
	if value >= d.hi {
		return d.bins - 1
	}
	b := int(float64(d.bins) * (value - d.lo) / (d.hi - d.lo))
	if b >= d.bins {
		b = d.bins - 1
	}
	return b
}

// Center returns the center value of the bin, used to turn predicted
// bins back into approximate metric values. Out-of-range bins clamp.
func (d *EqualWidth) Center(bin int) float64 {
	if bin < 0 {
		bin = 0
	}
	if bin >= d.bins {
		bin = d.bins - 1
	}
	width := (d.hi - d.lo) / float64(d.bins)
	return d.lo + (float64(bin)+0.5)*width
}
