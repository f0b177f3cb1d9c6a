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
// — so "attribute a of the whole fleet at one tick" is one contiguous
// slice that a single sweep can sanitize, discretize or fit from: Column
// for the latest tick, which the ewma fleet tick and workload inference
// read in one pass over the VMs, and Window, a read-only view of every
// held tick, for the batch refit, which warms every VM's filter and
// feeds every VM's baseline in one pass over the store's own layout.
// "The full row of one VM" is a strided gather (RowInto, RowsInto) for
// the detector kinds that tick or fit one VM at a time.
//
// The store is also the control loop's sample history. Each (tick, VM)
// cell carries a recorded flag: a recorded row belongs to the VM's
// training history, an unrecorded one (a sample synthesized past the
// sampler's staleness budget) is readable as the tick's row but left
// out of RowsInto, ValuesInto and Samples. A store built with New keeps
// the most recent window ticks as a ring, each Commit overwriting the
// oldest once full; one built with NewGrowing keeps every tick,
// doubling its capacity as it fills.
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

// growFrom is the initial capacity, in ticks, of a growing store.
const growFrom = 512

// Store is a struct-of-arrays ring of fleet metric samples.
type Store struct {
	nVMs int
	// window is the number of ticks retained, 0 for every tick.
	window int
	// slots is the ring's capacity in ticks: window, or the current
	// capacity of a growing store, which is never full between commits.
	slots int

	// cols[a] has slots*nVMs values laid out tick-major; the tick in
	// ring slot s occupies cols[a][s*nVMs : (s+1)*nVMs]. recorded is
	// laid out the same way.
	cols     [metrics.NumAttributes][]float64
	recorded []bool

	times  []simclock.Time
	labels []metrics.Label

	head  int // ring slot of the oldest committed tick
	count int // committed ticks currently held (≤ slots)
}

// New builds a store for nVMs VMs retaining the most recent window
// ticks.
func New(nVMs, window int) (*Store, error) {
	if window < 1 {
		return nil, fmt.Errorf("columnar: window %d must be >= 1", window)
	}
	return newStore(nVMs, window, window)
}

// NewGrowing builds a store for nVMs VMs that retains every tick,
// starting with room for 512 and doubling whenever it fills.
func NewGrowing(nVMs int) (*Store, error) {
	return newStore(nVMs, 0, growFrom)
}

func newStore(nVMs, window, slots int) (*Store, error) {
	if nVMs < 1 {
		return nil, fmt.Errorf("columnar: nVMs %d must be >= 1", nVMs)
	}
	s := &Store{nVMs: nVMs, window: window}
	s.resize(slots)
	return s, nil
}

// resize gives the store room for slots ticks, keeping what it holds.
// Only a store that has never wrapped (head 0) grows.
func (s *Store) resize(slots int) {
	n := slots * s.nVMs
	for a := range s.cols {
		s.cols[a] = append(make([]float64, 0, n), s.cols[a]...)[:n]
	}
	s.recorded = append(make([]bool, 0, n), s.recorded...)[:n]
	s.times = append(make([]simclock.Time, 0, slots), s.times...)[:slots]
	s.labels = append(make([]metrics.Label, 0, slots), s.labels...)[:slots]
	s.slots = slots
}

// VMs returns the fleet size the store was built for.
func (s *Store) VMs() int { return s.nVMs }

// Ticks returns how many committed ticks the store currently holds.
func (s *Store) Ticks() int { return s.count }

// stageSlot is the ring slot the next Commit will publish.
func (s *Store) stageSlot() int {
	if s.count < s.slots {
		return (s.head + s.count) % s.slots
	}
	return s.head // full ring: overwrite the oldest
}

// slot maps the k-th held tick, oldest first, to a ring slot.
func (s *Store) slot(k int) int { return (s.head + k) % s.slots }

// slotOf maps "back ticks before the latest" to a ring slot.
func (s *Store) slotOf(back int) int {
	if back < 0 || back >= s.count {
		panic(fmt.Sprintf("columnar: tick back=%d out of range (have %d)", back, s.count))
	}
	return s.slot(s.count - 1 - back)
}

// checkVM panics on a VM index outside the fleet.
func (s *Store) checkVM(vm int) {
	if vm < 0 || vm >= s.nVMs {
		panic(fmt.Sprintf("columnar: vm %d out of range [0,%d)", vm, s.nVMs))
	}
}

// StageRow writes one VM's full attribute vector into the tick being
// staged and marks it recorded. vm indexes the fleet in the caller's
// fixed order (the sampler's VM order in the control loop).
func (s *Store) StageRow(vm int, v *metrics.Vector) {
	s.checkVM(vm)
	i := s.stageSlot()*s.nVMs + vm
	for a := range s.cols {
		s.cols[a][i] = v[a]
	}
	s.recorded[i] = true
}

// Unrecord leaves VM vm's staged row out of the history: the committed
// tick still holds it for Column, RowInto and Latest, but RowsInto,
// ValuesInto and Samples skip it.
func (s *Store) Unrecord(vm int) {
	s.checkVM(vm)
	s.recorded[s.stageSlot()*s.nVMs+vm] = false
}

// Commit publishes the staged tick with its timestamp and fleet-wide
// SLO label, evicting the oldest tick once a bounded ring is full and
// growing a growing store once it fills.
func (s *Store) Commit(t simclock.Time, label metrics.Label) {
	slot := s.stageSlot()
	s.times[slot] = t
	s.labels[slot] = label
	if s.count < s.slots {
		s.count++
	} else {
		s.head = (s.head + 1) % s.slots
	}
	if s.window == 0 && s.count == s.slots {
		s.resize(2 * s.slots)
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
	s.checkVM(vm)
	s.gather(s.slotOf(0)*s.nVMs+vm, dst)
}

// gather copies the 13 attribute values at flat index i into dst.
func (s *Store) gather(i int, dst []float64) {
	_ = dst[metrics.NumAttributes-1]
	for a := range s.cols {
		dst[a] = s.cols[a][i]
	}
}

// Latest returns attribute a of one VM at the latest committed tick.
func (s *Store) Latest(vm int, a metrics.Attribute) float64 {
	return s.ColumnAt(0, a)[vm]
}

// Time returns the timestamp of the tick back ticks before the latest.
func (s *Store) Time(back int) simclock.Time { return s.times[s.slotOf(back)] }

// Recorded reports whether VM vm's row back ticks before the latest
// belongs to its history.
func (s *Store) Recorded(back, vm int) bool {
	s.checkVM(vm)
	return s.recorded[s.slotOf(back)*s.nVMs+vm]
}

// recordedRows counts VM vm's recorded rows.
func (s *Store) recordedRows(vm int) int {
	s.checkVM(vm)
	n := 0
	for k := 0; k < s.count; k++ {
		if s.recorded[s.slot(k)*s.nVMs+vm] {
			n++
		}
	}
	return n
}

// RowsInto writes VM vm's recorded rows, oldest first, as rows of
// NumAttributes values plus each tick's label. Rows are consecutive,
// capacity-capped windows of backing. Each buffer is reused when it can
// hold every committed tick and replaced when not; RowsInto returns all
// three, trimmed to the rows it gathered in its one pass, so a caller
// that keeps them gathers VM after VM without allocating.
func (s *Store) RowsInto(vm int, backing []float64, rows [][]float64, labels []metrics.Label) ([]float64, [][]float64, []metrics.Label) {
	s.checkVM(vm)
	n := s.count
	const w = metrics.NumAttributes
	if cap(backing) < n*w {
		backing = make([]float64, n*w)
	}
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	if cap(labels) < n {
		labels = make([]metrics.Label, n)
	}
	backing, rows, labels = backing[:n*w], rows[:n], labels[:n]
	r := 0
	for k := 0; k < s.count; k++ {
		slot := s.slot(k)
		i := slot*s.nVMs + vm
		if !s.recorded[i] {
			continue
		}
		row := backing[r*w : (r+1)*w : (r+1)*w]
		s.gather(i, row)
		rows[r], labels[r] = row, s.labels[slot]
		r++
	}
	return backing[:r*w], rows[:r], labels[:r]
}

// Window is a read-only view of the ticks a store holds, oldest first,
// in the store's own layout: each held tick's line of every attribute
// across the fleet, its recorded line and its label. Its slices alias
// the store, are indexed by VM and are valid until the next Commit.
type Window struct{ s *Store }

// Window returns the view of the ticks s holds.
func (s *Store) Window() Window { return Window{s} }

// Ticks returns the number of held ticks.
func (w Window) Ticks() int { return w.s.count }

// heldBase returns the flat index of VM 0 at the k-th held tick, oldest
// first.
func (w Window) heldBase(k int) int {
	if k < 0 || k >= w.s.count {
		panic(fmt.Sprintf("columnar: held tick %d out of range (have %d)", k, w.s.count))
	}
	return w.s.slot(k) * w.s.nVMs
}

// Line returns attribute a across the fleet at the k-th held tick.
func (w Window) Line(k int, a metrics.Attribute) []float64 {
	i := w.heldBase(k)
	return w.s.cols[a.Index()][i : i+w.s.nVMs : i+w.s.nVMs]
}

// Recorded returns which VMs' rows at the k-th held tick belong to
// their histories.
func (w Window) Recorded(k int) []bool {
	i := w.heldBase(k)
	return w.s.recorded[i : i+w.s.nVMs : i+w.s.nVMs]
}

// Label returns the k-th held tick's label.
func (w Window) Label(k int) metrics.Label {
	w.heldBase(k)
	return w.s.labels[w.s.slot(k)]
}

// ValuesInto appends attribute a of VM vm's recorded rows with
// from <= t < to, oldest first, to dst[:0] and returns it.
func (s *Store) ValuesInto(dst []float64, vm int, a metrics.Attribute, from, to simclock.Time) []float64 {
	s.checkVM(vm)
	dst = dst[:0]
	col := s.cols[a.Index()]
	for k := 0; k < s.count; k++ {
		slot := s.slot(k)
		i := slot*s.nVMs + vm
		if t := s.times[slot]; s.recorded[i] && !t.Before(from) && t.Before(to) {
			dst = append(dst, col[i])
		}
	}
	return dst
}

// Samples returns a copy of VM vm's recorded rows, oldest first, as
// samples with each tick's time and label.
func (s *Store) Samples(vm int) []metrics.Sample {
	out := make([]metrics.Sample, 0, s.recordedRows(vm))
	for k := 0; k < s.count; k++ {
		slot := s.slot(k)
		i := slot*s.nVMs + vm
		if !s.recorded[i] {
			continue
		}
		sm := metrics.Sample{Time: s.times[slot], Label: s.labels[slot]}
		s.gather(i, sm.Values[:])
		out = append(out, sm)
	}
	return out
}
