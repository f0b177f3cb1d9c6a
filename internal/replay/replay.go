// Package replay implements the trace-driven substrate: labeled per-VM
// metric series (for example exported by cmd/preparetrace) stand in for
// the simulator as the control loop's metric source, while inventory
// and actuation are book-kept locally. The full PREPARE loop — predict,
// filter, diagnose, prevent, validate — runs unmodified over offline
// data; executed preventions are recorded in an action log instead of
// changing a live system.
//
// Because replayed metrics do not react to preventions, the substrate
// is an open-loop harness: it answers "what would PREPARE have done,
// and when" for a recorded incident, which is exactly the replay study
// the paper runs against its collected testbed traces.
package replay

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// DefaultAllocation is assumed for VMs whose trace does not come with
// an explicit initial allocation (the paper's standard VM: 1 VCPU at
// 100%, 512 MB).
var DefaultAllocation = substrate.Allocation{CPUPct: 100, MemMB: 512}

// Action is one recorded actuation against the replayed inventory.
type Action struct {
	Time simclock.Time
	Kind substrate.ActionKind
	VM   substrate.VMID
	// CPUPct/MemMB are the allocation after the action.
	CPUPct, MemMB float64
}

// Config tunes a replay substrate.
type Config struct {
	// Allocations seeds per-VM initial allocations; VMs absent from the
	// map start at DefaultAllocation.
	Allocations map[substrate.VMID]substrate.Allocation
	// MigrationSecondsFn models live-migration duration from the memory
	// allocation. Nil uses the same pre-copy model as the simulator
	// (~7 s base plus transfer time).
	MigrationSecondsFn func(memMB float64) int64
}

// ErrNoSample is returned (wrapping the transient sentinel) when an
// appendable substrate is read before its first sample arrives. The
// monitor carries forward over it like any other transient gap;
// watermark-gated callers such as internal/server never trigger it.
var ErrNoSample = fmt.Errorf("replay: no sample ingested yet: %w", substrate.ErrUnavailable)

var errNotAppendable = errors.New("replay: substrate is not appendable (use NewAppendable)")

// trimAfter is how far an appendable VM's cursor may run past the start
// of its series before Advance drops the consumed prefix. The trim only
// copies the pending samples down, so a short threshold is cheap and
// keeps each series' backing array small.
const trimAfter = 16

// vmSlot is one VM's replay state: its series and cursor, the time of
// its latest sample, its book-kept allocation and any migration in
// flight.
type vmSlot struct {
	series    []metrics.Sample
	cursor    int
	last      simclock.Time // latest sample time; -1 before the first
	alloc     substrate.Allocation
	migrating bool
	migEnd    simclock.Time
}

// Substrate replays per-VM metric series through the substrate
// contract. Each VM owns one slot, in the canonical sorted-ID order;
// by-ID calls resolve the slot through one map lookup, and the per-tick
// loops (Advance, MinLastTime, App) walk the slots directly.
type Substrate struct {
	vmIDs []substrate.VMID
	slots []vmSlot
	index map[substrate.VMID]int32

	now        simclock.Time
	advanced   bool
	inFlight   int // slots with a migration not yet expired
	migSeconds func(memMB float64) int64
	actions    []Action

	// appendable substrates receive samples via Append instead of a
	// trace fixed at construction; consumed prefixes are trimmed so a
	// long-running ingest server holds O(pending), not O(history).
	appendable bool
}

var _ substrate.Substrate = (*Substrate)(nil)

// newSubstrate lays out one slot per VM in the order of ids, which the
// caller has sorted and deduplicated.
func newSubstrate(ids []substrate.VMID, cfg Config) *Substrate {
	s := &Substrate{
		vmIDs:      ids,
		slots:      make([]vmSlot, len(ids)),
		index:      make(map[substrate.VMID]int32, len(ids)),
		migSeconds: cfg.MigrationSecondsFn,
	}
	if s.migSeconds == nil {
		s.migSeconds = func(memMB float64) int64 { return int64(7 + memMB/330) }
	}
	for k, id := range ids {
		a, ok := cfg.Allocations[id]
		if !ok {
			a = DefaultAllocation
		}
		s.slots[k] = vmSlot{last: -1, alloc: a}
		s.index[id] = int32(k)
	}
	return s
}

// New builds a replay substrate over the per-VM series. Every series
// must be non-empty and sorted by time.
func New(traces map[substrate.VMID][]metrics.Sample, cfg Config) (*Substrate, error) {
	if len(traces) == 0 {
		return nil, errors.New("replay: at least one VM trace is required")
	}
	ids := make([]substrate.VMID, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	s := newSubstrate(ids, cfg)
	for k, id := range ids {
		series := traces[id]
		if len(series) == 0 {
			return nil, fmt.Errorf("replay: trace for VM %q is empty", id)
		}
		for i := 1; i < len(series); i++ {
			if series[i].Time.Before(series[i-1].Time) {
				return nil, fmt.Errorf("replay: trace for VM %q is not sorted at index %d", id, i)
			}
		}
		sl := &s.slots[k]
		sl.series = append([]metrics.Sample(nil), series...)
		sl.last = series[len(series)-1].Time
	}
	return s, nil
}

// NewAppendable builds a replay substrate over the VM set with empty
// series: samples arrive later through Append (a push-style source for
// the ingest server). Reads before the first Append return ErrNoSample,
// which the monitor treats as a transient gap.
func NewAppendable(vmIDs []substrate.VMID, cfg Config) (*Substrate, error) {
	if len(vmIDs) == 0 {
		return nil, errors.New("replay: at least one VM is required")
	}
	ids := make([]substrate.VMID, 0, len(vmIDs))
	seen := make(map[substrate.VMID]bool, len(vmIDs))
	for _, id := range vmIDs {
		if seen[id] {
			return nil, fmt.Errorf("replay: duplicate VM %q", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	s := newSubstrate(ids, cfg)
	s.appendable = true
	return s, nil
}

// Append ingests one sample for an appendable substrate's VM. Samples
// must arrive in non-decreasing time order per VM and may not be
// appended at or before the already-advanced instant (the cursor only
// moves forward).
func (s *Substrate) Append(id substrate.VMID, sample metrics.Sample) error {
	if !s.appendable {
		return errNotAppendable
	}
	k, ok := s.index[id]
	if !ok {
		return substrate.ErrNoSuchVM
	}
	v, err := s.AppendSlot(int(k), sample.Time, sample.Label)
	if err != nil {
		return err
	}
	*v = sample.Values
	return nil
}

// AppendSlot is Append addressed by slot — the VM's index in VMs(),
// which must be in range — for callers that resolve VM IDs once and
// fill attribute vectors from their own layout. On success it returns
// the new sample's zeroed attribute vector, which the caller fills in
// place before its next call on the substrate.
func (s *Substrate) AppendSlot(slot int, t simclock.Time, label metrics.Label) (*metrics.Vector, error) {
	if !s.appendable {
		return nil, errNotAppendable
	}
	sl := &s.slots[slot]
	if t.Before(sl.last) {
		return nil, fmt.Errorf("replay: VM %q: sample at %v arrived after %v", s.vmIDs[slot], t, sl.last)
	}
	if s.advanced && !t.After(s.now) {
		// The cursor already read this instant: a late sample here
		// would be skipped (or re-read inconsistently), breaking the
		// replay's determinism contract.
		return nil, fmt.Errorf("replay: VM %q: sample at %v is not after the cursor (now=%v)", s.vmIDs[slot], t, s.now)
	}
	n := len(sl.series)
	sl.series = slices.Grow(sl.series, 1)[:n+1]
	p := &sl.series[n]
	*p = metrics.Sample{Time: t, Label: label}
	sl.last = t
	return &p.Values, nil
}

// LastTime returns the time of the VM's latest sample — the last one
// appended, or the end of a fixed trace — or (-1, true) when nothing
// has been appended yet. The second result is false for unknown VMs.
func (s *Substrate) LastTime(id substrate.VMID) (simclock.Time, bool) {
	k, ok := s.index[id]
	if !ok {
		return -1, false
	}
	return s.slots[k].last, true
}

// MinLastTime returns the minimum of LastTime over every VM: the last
// instant for which every VM has a sample, or -1 while some VM has
// none.
func (s *Substrate) MinLastTime() simclock.Time {
	min := s.slots[0].last
	for k := 1; k < len(s.slots); k++ {
		if lt := s.slots[k].last; lt.Before(min) {
			min = lt
		}
	}
	return min
}

// FromCSV builds a replay substrate by parsing one WriteSamplesCSV
// stream per VM.
func FromCSV(sources map[substrate.VMID]io.Reader, cfg Config) (*Substrate, error) {
	traces := make(map[substrate.VMID][]metrics.Sample, len(sources))
	for id, r := range sources {
		samples, err := metrics.ReadSamplesCSV(r)
		if err != nil {
			return nil, fmt.Errorf("replay: VM %q: %w", id, err)
		}
		traces[id] = samples
	}
	return New(traces, cfg)
}

// VMs lists the replayed VMs in canonical sorted order.
func (s *Substrate) VMs() []substrate.VMID {
	out := make([]substrate.VMID, len(s.vmIDs))
	copy(out, s.vmIDs)
	return out
}

// Advance moves every VM's replay cursor to the latest sample at or
// before now and expires completed migrations. Advancing again to the
// instant already reached moves no cursor — Append refuses samples at
// or before it — so only the migration expiry runs.
func (s *Substrate) Advance(now simclock.Time) {
	if !s.advanced || now != s.now {
		s.now = now
		s.advanced = true
		for k := range s.slots {
			sl := &s.slots[k]
			series := sl.series
			if len(series) == 0 {
				continue
			}
			i := sl.cursor
			for i+1 < len(series) && !now.Before(series[i+1].Time) {
				i++
			}
			if s.appendable && i > trimAfter {
				// Drop the consumed prefix (keeping the current sample)
				// so a long-running ingest server holds O(pending)
				// memory. The pending samples move down within the same
				// backing array; Sample holds no pointers, so the stale
				// tail past the new length retains nothing.
				sl.series = series[:copy(series, series[i:])]
				i = 0
			}
			sl.cursor = i
		}
	}
	for k := 0; s.inFlight > 0 && k < len(s.slots); k++ {
		if sl := &s.slots[k]; sl.migrating && !now.Before(sl.migEnd) {
			sl.migrating = false
			s.inFlight--
		}
	}
}

// current returns the slot's sample under the cursor.
func (sl *vmSlot) current() (*metrics.Sample, error) {
	if len(sl.series) == 0 {
		return nil, ErrNoSample
	}
	return &sl.series[sl.cursor], nil
}

// slot resolves a VM ID to its slot.
func (s *Substrate) slot(id substrate.VMID) (*vmSlot, error) {
	k, ok := s.index[id]
	if !ok {
		return nil, substrate.ErrNoSuchVM
	}
	return &s.slots[k], nil
}

// Sample returns the VM's current replayed attribute vector. Replayed
// traces already carry measurement noise, so samplers over this source
// should disable their own (monitor.Config.NoiseStd < 0).
func (s *Substrate) Sample(id substrate.VMID) (metrics.Vector, error) {
	sl, err := s.slot(id)
	if err != nil {
		return metrics.Vector{}, err
	}
	cur, err := sl.current()
	if err != nil {
		return metrics.Vector{}, err
	}
	return cur.Values, nil
}

// Label returns the SLO label recorded with the VM's current sample.
func (s *Substrate) Label(id substrate.VMID) (metrics.Label, error) {
	sl, err := s.slot(id)
	if err != nil {
		return metrics.LabelUnknown, err
	}
	cur, err := sl.current()
	if err != nil {
		return metrics.LabelUnknown, err
	}
	return cur.Label, nil
}

// End returns the last instant covered by any trace.
func (s *Substrate) End() simclock.Time {
	var end simclock.Time
	for k := range s.slots {
		if last := s.slots[k].last; end.Before(last) {
			end = last
		}
	}
	return end
}

// Allocation returns the VM's book-kept resource caps.
func (s *Substrate) Allocation(id substrate.VMID) (substrate.Allocation, error) {
	sl, err := s.slot(id)
	if err != nil {
		return substrate.Allocation{}, err
	}
	return sl.alloc, nil
}

// Migrating reports whether a recorded migration is still in flight.
func (s *Substrate) Migrating(id substrate.VMID) (bool, error) {
	sl, err := s.slot(id)
	if err != nil {
		return false, err
	}
	return sl.migrating, nil
}

// ScaleCPU records a CPU scaling action and updates the inventory.
func (s *Substrate) ScaleCPU(now simclock.Time, id substrate.VMID, newCPUPct float64) error {
	return s.scale(now, id, substrate.ActionScaleCPU, newCPUPct, 0)
}

// ScaleMem records a memory scaling action and updates the inventory.
func (s *Substrate) ScaleMem(now simclock.Time, id substrate.VMID, newMemMB float64) error {
	return s.scale(now, id, substrate.ActionScaleMem, 0, newMemMB)
}

func (s *Substrate) scale(now simclock.Time, id substrate.VMID, kind substrate.ActionKind, cpuPct, memMB float64) error {
	sl, err := s.slot(id)
	if err != nil {
		return err
	}
	if sl.migrating {
		return substrate.ErrMigrating
	}
	if kind == substrate.ActionScaleCPU {
		sl.alloc.CPUPct = cpuPct
	} else {
		sl.alloc.MemMB = memMB
	}
	s.actions = append(s.actions, Action{Time: now, Kind: kind, VM: id, CPUPct: sl.alloc.CPUPct, MemMB: sl.alloc.MemMB})
	return nil
}

// Migrate records a live migration: the VM is marked in-flight for the
// modeled duration and lands with the desired allocation.
func (s *Substrate) Migrate(now simclock.Time, id substrate.VMID, desiredCPUPct, desiredMemMB float64) error {
	sl, err := s.slot(id)
	if err != nil {
		return err
	}
	if sl.migrating {
		return substrate.ErrMigrating
	}
	sl.migrating = true
	sl.migEnd = now.Add(s.migSeconds(sl.alloc.MemMB))
	s.inFlight++
	sl.alloc = substrate.Allocation{CPUPct: desiredCPUPct, MemMB: desiredMemMB}
	s.actions = append(s.actions, Action{Time: now, Kind: substrate.ActionMigrate, VM: id, CPUPct: desiredCPUPct, MemMB: desiredMemMB})
	return nil
}

// MigrationSeconds returns the modeled live-migration duration.
func (s *Substrate) MigrationSeconds(memMB float64) int64 {
	return s.migSeconds(memMB)
}

// Actions returns the recorded actuation log.
func (s *Substrate) Actions() []Action {
	out := make([]Action, len(s.actions))
	copy(out, s.actions)
	return out
}

// App adapts a replay substrate to the control loop's application
// contract: the SLO is considered violated whenever any replayed VM's
// current sample carries the abnormal label (the label was recorded
// from the application's real SLO state when the trace was captured).
type App struct {
	sub *Substrate
}

// NewApp wraps the substrate as a managed application.
func NewApp(sub *Substrate) (*App, error) {
	if sub == nil {
		return nil, errors.New("replay: substrate is required")
	}
	return &App{sub: sub}, nil
}

// Tick is a no-op: the trace advances through the substrate's Advance.
func (a *App) Tick(simclock.Time) {}

// SLOViolated reports whether any VM's current sample is abnormal.
func (a *App) SLOViolated() bool {
	for k := range a.sub.slots {
		if cur, err := a.sub.slots[k].current(); err == nil && cur.Label == metrics.LabelAbnormal {
			return true
		}
	}
	return false
}

// SLOMetric returns the fraction of VMs currently labeled abnormal.
func (a *App) SLOMetric() float64 {
	n := 0
	for k := range a.sub.slots {
		if cur, err := a.sub.slots[k].current(); err == nil && cur.Label == metrics.LabelAbnormal {
			n++
		}
	}
	return float64(n) / float64(len(a.sub.slots))
}

// VMIDs lists the replayed VMs in canonical order.
func (a *App) VMIDs() []substrate.VMID { return a.sub.VMs() }
