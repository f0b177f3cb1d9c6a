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

// Series is an append-only labeled time series of samples for one VM.
// The zero value is an empty unbounded series ready to use. A series
// built with NewBoundedSeries instead retains only the most recent
// samples in a fixed ring, bounding memory for long-running monitoring;
// every accessor works in logical (oldest-first) order either way.
type Series struct {
	samples []Sample
	head    int // ring index of the oldest sample (always 0 when unbounded)
	count   int // live samples
	limit   int // ring capacity; 0 = unbounded
}

// NewSeries returns an empty unbounded series with capacity for n
// samples.
func NewSeries(n int) *Series {
	return &Series{samples: make([]Sample, 0, n)}
}

// NewBoundedSeries returns an empty series that retains only the limit
// most recent samples: once full, each Append evicts the oldest. limit
// must be positive.
func NewBoundedSeries(limit int) (*Series, error) {
	if limit < 1 {
		return nil, fmt.Errorf("metrics: series limit %d must be >= 1", limit)
	}
	return &Series{samples: make([]Sample, 0, limit), limit: limit}, nil
}

// idx maps a logical (oldest-first) position to a storage index.
func (s *Series) idx(i int) int {
	j := s.head + i
	if j >= len(s.samples) && len(s.samples) > 0 {
		j -= len(s.samples)
	}
	return j
}

// Append adds a sample to the end of the series, evicting the oldest
// when a bounded series is full. Samples are expected in non-decreasing
// time order; Append returns an error otherwise so callers catch wiring
// mistakes early.
func (s *Series) Append(sm Sample) error {
	if s.count > 0 {
		if last := s.samples[s.idx(s.count-1)]; sm.Time.Before(last.Time) {
			return fmt.Errorf("metrics: sample at %v appended after %v", sm.Time, last.Time)
		}
	}
	if s.limit > 0 && s.count == s.limit {
		s.samples[s.head] = sm
		s.head++
		if s.head == s.limit {
			s.head = 0
		}
		return nil
	}
	s.samples = append(s.samples, sm)
	s.count++
	return nil
}

// Len returns the number of samples in the series.
func (s *Series) Len() int { return s.count }

// Limit returns the ring capacity (0 for an unbounded series).
func (s *Series) Limit() int { return s.limit }

// Last returns the most recent sample. The boolean is false when the
// series is empty.
func (s *Series) Last() (Sample, bool) {
	if s.count == 0 {
		return Sample{}, false
	}
	return s.samples[s.idx(s.count-1)], true
}

// Window returns a copy of the retained samples with from <= t < to.
func (s *Series) Window(from, to simclock.Time) []Sample {
	var out []Sample
	for i := 0; i < s.count; i++ {
		sm := s.samples[s.idx(i)]
		if !sm.Time.Before(from) && sm.Time.Before(to) {
			out = append(out, sm)
		}
	}
	return out
}

// All returns a copy of every retained sample, oldest first.
func (s *Series) All() []Sample {
	out := make([]Sample, s.count)
	for i := range out {
		out[i] = s.samples[s.idx(i)]
	}
	return out
}

// RowsInto writes every retained sample, oldest first, as one row of
// NumAttributes values plus its label, reading the ring in place. Rows
// are consecutive, capacity-capped windows of backing. Each buffer is
// reused when it is large enough and replaced when not; RowsInto returns
// all three, so a caller that keeps them converts series after series
// without allocating.
func (s *Series) RowsInto(backing []float64, rows [][]float64, labels []Label) ([]float64, [][]float64, []Label) {
	n := s.count
	if cap(backing) < n*NumAttributes {
		backing = make([]float64, n*NumAttributes)
	}
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	if cap(labels) < n {
		labels = make([]Label, n)
	}
	backing, rows, labels = backing[:n*NumAttributes], rows[:n], labels[:n]
	for i := range rows {
		sm := &s.samples[s.idx(i)]
		row := backing[i*NumAttributes : (i+1)*NumAttributes : (i+1)*NumAttributes]
		copy(row, sm.Values[:])
		rows[i] = row
		labels[i] = sm.Label
	}
	return backing, rows, labels
}

// Column extracts the values of a single attribute across all retained
// samples.
func (s *Series) Column(a Attribute) []float64 {
	out := make([]float64, s.count)
	for i := range out {
		out[i] = s.samples[s.idx(i)].Values.Get(a)
	}
	return out
}

// Relabel sets the label of every sample using the provided oracle, which
// maps a timestamp to the SLO state at that instant. This implements the
// paper's automatic runtime data labeling: measurements are matched
// against the SLO violation log by timestamp.
func (s *Series) Relabel(oracle func(simclock.Time) Label) {
	for i := range s.samples {
		s.samples[i].Label = oracle(s.samples[i].Time)
	}
}
