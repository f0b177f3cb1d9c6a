// Package columnar holds fleet metric samples in struct-of-arrays form:
// one contiguous ring-buffered float64 slab per monitored attribute
// across every VM, instead of one Sample struct per VM per tick.
//
// The row-oriented map[VMID]Sample the per-VM control path passes around
// is convenient but hostile to fleet-scale sweeps: each tick allocates a
// fresh map and scatters the 13 attribute values of each VM across the
// heap, so batch sanitize/discretize/predict passes stride through
// pointers instead of streaming cache lines. The columnar Store keeps a
// tick-major layout per attribute —
//
//	col[a][slot*nVMs + vm]
//
// — so "attribute a of the whole fleet at the latest tick" is one
// contiguous slice (Column) that a single sweep can sanitize or
// discretize, while "the full row of one VM" is a strided gather
// (RowInto) that the per-VM model updates still need. Ticks are a ring:
// once Window ticks are held, each Commit overwrites the oldest.
//
// Writers stage the next tick with StageRow and publish it atomically
// (with respect to the accessors, not goroutines) with Commit; the Store
// itself is not safe for concurrent use, matching the rest of the
// control loop.
package columnar

import (
	"fmt"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

// Store is a struct-of-arrays ring of fleet metric samples.
type Store struct {
	nVMs   int
	window int

	// cols[a] has window*nVMs values laid out tick-major; the tick in
	// ring slot s occupies cols[a][s*nVMs : (s+1)*nVMs].
	cols [metrics.NumAttributes][]float64

	times  []simclock.Time
	labels []metrics.Label

	head  int // ring slot of the oldest committed tick
	count int // committed ticks currently held (≤ window)
}

// New builds a store for nVMs VMs retaining the most recent window
// ticks.
func New(nVMs, window int) (*Store, error) {
	if nVMs < 1 {
		return nil, fmt.Errorf("columnar: nVMs %d must be >= 1", nVMs)
	}
	if window < 1 {
		return nil, fmt.Errorf("columnar: window %d must be >= 1", window)
	}
	s := &Store{nVMs: nVMs, window: window,
		times:  make([]simclock.Time, window),
		labels: make([]metrics.Label, window),
	}
	for a := range s.cols {
		s.cols[a] = make([]float64, window*nVMs)
	}
	return s, nil
}

// VMs returns the fleet size the store was built for.
func (s *Store) VMs() int { return s.nVMs }

// Window returns the ring capacity in ticks.
func (s *Store) Window() int { return s.window }

// Ticks returns how many committed ticks the ring currently holds.
func (s *Store) Ticks() int { return s.count }

// stageSlot is the ring slot the next Commit will publish.
func (s *Store) stageSlot() int {
	if s.count < s.window {
		return (s.head + s.count) % s.window
	}
	return s.head // full ring: overwrite the oldest
}

// slotOf maps "back ticks before the latest" to a ring slot.
func (s *Store) slotOf(back int) int {
	if back < 0 || back >= s.count {
		panic(fmt.Sprintf("columnar: tick back=%d out of range (have %d)", back, s.count))
	}
	return (s.head + s.count - 1 - back) % s.window
}

// StageRow writes one VM's full attribute vector into the tick being
// staged. vm indexes the fleet in the caller's fixed order (the sampler's
// VM order in the control loop).
func (s *Store) StageRow(vm int, v *metrics.Vector) {
	if vm < 0 || vm >= s.nVMs {
		panic(fmt.Sprintf("columnar: vm %d out of range [0,%d)", vm, s.nVMs))
	}
	base := s.stageSlot() * s.nVMs
	for a := range s.cols {
		s.cols[a][base+vm] = v[a]
	}
}

// Commit publishes the staged tick with its timestamp and fleet-wide
// SLO label, evicting the oldest tick once the ring is full.
func (s *Store) Commit(t simclock.Time, label metrics.Label) {
	slot := s.stageSlot()
	s.times[slot] = t
	s.labels[slot] = label
	if s.count < s.window {
		s.count++
	} else {
		s.head = (s.head + 1) % s.window
	}
}

// Column returns attribute a across the whole fleet at the latest
// committed tick, as one contiguous slice indexed by VM. The slice
// aliases the ring and is valid until that slot is overwritten.
func (s *Store) Column(a metrics.Attribute) []float64 {
	return s.ColumnAt(0, a)
}

// ColumnAt returns attribute a across the fleet back ticks before the
// latest committed tick (back=0 is the latest).
func (s *Store) ColumnAt(back int, a metrics.Attribute) []float64 {
	base := s.slotOf(back) * s.nVMs
	return s.cols[a.Index()][base : base+s.nVMs]
}

// RowInto gathers one VM's 13 attribute values at the latest committed
// tick into dst (len >= NumAttributes), in Attribute.Index order — the
// layout model training consumes.
func (s *Store) RowInto(vm int, dst []float64) {
	if vm < 0 || vm >= s.nVMs {
		panic(fmt.Sprintf("columnar: vm %d out of range [0,%d)", vm, s.nVMs))
	}
	base := s.slotOf(0)*s.nVMs + vm
	_ = dst[metrics.NumAttributes-1]
	for a := range s.cols {
		dst[a] = s.cols[a][base]
	}
}

// Latest returns attribute a of one VM at the latest committed tick.
func (s *Store) Latest(vm int, a metrics.Attribute) float64 {
	return s.ColumnAt(0, a)[vm]
}

// Time returns the timestamp of the tick back ticks before the latest.
func (s *Store) Time(back int) simclock.Time { return s.times[s.slotOf(back)] }

// Label returns the fleet-wide SLO label of the tick back ticks before
// the latest.
func (s *Store) Label(back int) metrics.Label { return s.labels[s.slotOf(back)] }
