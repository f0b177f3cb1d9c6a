package monitor

import (
	"math"

	"prepare/internal/metrics"
)

// badValue reports whether a raw metric reading cannot be real: the 13
// monitored attributes are all nonnegative finite quantities, so NaN,
// ±Inf, and negative readings are collector defects, not measurements.
func badValue(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0) || x < 0
}

// SanitizeVector repairs a raw metric vector in place before it
// reaches discretization and model training: every NaN, ±Inf, or
// negative attribute of v is replaced by the same attribute from
// fallback (the VM's last known-good vector), or by zero when the
// fallback attribute is itself unusable. It returns how many attributes
// were replaced. v and fallback may be the same vector.
//
// Without this guard a single stuck or broken sensor silently corrupts
// the Markov and TAN models: NaN survives discretization bin lookups
// and noise multiplication, and every downstream count it touches
// becomes NaN too.
func SanitizeVector(v, fallback *metrics.Vector) int {
	repaired := 0
	for i := range v {
		if badValue(v[i]) {
			f := fallback[i]
			if badValue(f) {
				f = 0
			}
			v[i] = f
			repaired++
		}
	}
	return repaired
}
