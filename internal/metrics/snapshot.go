package metrics

import "fmt"

// DiscretizerSnapshot is a serializable dump of a fitted discretizer.
type DiscretizerSnapshot struct {
	// Kind is "equal-width", the only kind.
	Kind string  `json:"kind"`
	Lo   float64 `json:"lo,omitempty"`
	Hi   float64 `json:"hi,omitempty"`
	Bins int     `json:"bins,omitempty"`
}

// Snapshot exports the discretizer.
func (d *EqualWidth) Snapshot() DiscretizerSnapshot {
	return DiscretizerSnapshot{Kind: "equal-width", Lo: d.lo, Hi: d.hi, Bins: d.bins}
}

// DiscretizerFromSnapshot reconstructs a discretizer. Any kind but
// "equal-width" is refused.
func DiscretizerFromSnapshot(s DiscretizerSnapshot) (*EqualWidth, error) {
	if s.Kind != "equal-width" {
		return nil, fmt.Errorf("metrics: unknown discretizer kind %q", s.Kind)
	}
	return NewEqualWidthRange(s.Lo, s.Hi, s.Bins)
}
