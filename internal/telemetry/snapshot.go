package telemetry

import (
	"math"
	"sort"
)

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistogramSnapshot is one histogram's exported state. Bounds are the
// bucket upper bounds; Counts has one extra entry for the +Inf bucket.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile approximates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts, reporting the upper bound of the bucket containing it.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Counts) == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			// +Inf bucket: report the largest finite bound.
			if len(h.Bounds) > 0 {
				return h.Bounds[len(h.Bounds)-1]
			}
			return 0
		}
	}
	if len(h.Bounds) > 0 {
		return h.Bounds[len(h.Bounds)-1]
	}
	return 0
}

// Snapshot is a point-in-time copy of a registry: plain data, safe to
// retain, serialize and merge.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]GaugeSnapshot     `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	Events        []Event                      `json:"events,omitempty"`
	DroppedEvents uint64                       `json:"dropped_events"`
}

// Counter returns a counter's value (0 when absent or s is nil).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// CounterNames returns the counter names in sorted order.
func (s *Snapshot) CounterNames() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot copies the registry's current state. Returns nil when r is
// nil (disabled mode).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]GaugeSnapshot, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		hists[name] = hs
	}
	trace := r.trace
	r.mu.Unlock()

	return &Snapshot{
		Counters:      counters,
		Gauges:        gauges,
		Histograms:    hists,
		Events:        trace.Events(),
		DroppedEvents: trace.Dropped(),
	}
}

// Merge folds another registry's snapshot into this registry: counters
// and histogram buckets add, gauges keep the highest high-water mark
// (and the merged value becomes the maximum, since "last value" has no
// meaning across parallel runs), events append to the trace in the
// snapshot's order. Safe to call concurrently from experiment workers.
// No-op when r or s is nil.
func (r *Registry) Merge(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, gs := range s.Gauges {
		g := r.Gauge(name)
		if gs.Max > g.Max() || gs.Value > g.Value() {
			g.Set(gs.Max)
		}
	}
	for name, hs := range s.Histograms {
		h := r.HistogramWith(name, hs.Bounds)
		h.merge(hs)
	}
	for _, e := range s.Events {
		e.Seq = 0 // reassigned by the receiving trace
		r.trace.Emit(e)
	}
}

// merge adds a snapshot's buckets into the histogram; layouts must
// match (they do for registries built from the same fixed layouts — on
// mismatch the observations are folded in through Observe on the
// bucket upper bounds, preserving count and approximate shape).
func (h *Histogram) merge(hs HistogramSnapshot) {
	if h == nil || hs.Count == 0 {
		return
	}
	if len(hs.Counts) == len(h.buckets) && boundsEqual(h.bounds, hs.Bounds) {
		for i, c := range hs.Counts {
			h.buckets[i].Add(c)
		}
		h.count.Add(hs.Count)
		h.addSum(hs.Sum)
		return
	}
	for i, c := range hs.Counts {
		v := 0.0
		switch {
		case i < len(hs.Bounds):
			v = hs.Bounds[i]
		case len(hs.Bounds) > 0:
			v = hs.Bounds[len(hs.Bounds)-1]
		}
		for n := uint64(0); n < c; n++ {
			h.Observe(v)
		}
	}
}

func (h *Histogram) addSum(v float64) {
	for {
		cur := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if h.sumBits.CompareAndSwap(cur, next) {
			return
		}
	}
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
