package metrics

import (
	"fmt"

	"prepare/internal/simclock"
)

// Label classifies a sample according to the application's SLO state at
// the sample's timestamp. LabelUnknown is the zero value so unlabeled
// data is the natural default.
type Label int

const (
	// LabelUnknown marks samples that have not been correlated with the
	// SLO violation log yet.
	LabelUnknown Label = iota
	// LabelNormal marks samples taken while the SLO was satisfied.
	LabelNormal
	// LabelAbnormal marks samples taken while the SLO was violated.
	LabelAbnormal
)

// String returns a short human-readable label name.
func (l Label) String() string {
	switch l {
	case LabelNormal:
		return "normal"
	case LabelAbnormal:
		return "abnormal"
	case LabelUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("label(%d)", int(l))
	}
}

// Vector holds one value per monitored attribute, indexed by
// Attribute.Index().
type Vector [NumAttributes]float64

// Get returns the value of the given attribute.
func (v Vector) Get(a Attribute) float64 { return v[a.Index()] }

// Set assigns the value of the given attribute.
func (v *Vector) Set(a Attribute, val float64) { v[a.Index()] = val }

// Sample is one monitoring observation of a single VM: a timestamped
// vector of the 13 attribute values plus an SLO-derived label.
type Sample struct {
	Time   simclock.Time
	Values Vector
	Label  Label
}
