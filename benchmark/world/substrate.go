package world

import (
	"time"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// Substrate serves one tenant group of a World through the substrate
// contract: Sample reads the generated row at the current second,
// inventory is book-kept locally, and the actuator only records what it
// was asked to do — the synthetic metrics never react, so the alert
// stream is a pure function of the seed.
type Substrate struct {
	w      *World
	group  int
	lo     int
	ids    []substrate.VMID
	index  map[substrate.VMID]int
	allocs []substrate.Allocation
	now    int64
	viol   bool

	actions int

	// Timed is set by a traced pass: Sample then accumulates the wall
	// time spent generating rows, which the pass books as one child span
	// of the tick so the system's self time excludes it.
	Timed      bool
	SampleTime time.Duration
}

var _ substrate.Substrate = (*Substrate)(nil)

// NewSubstrate builds the substrate of tenant group g.
func NewSubstrate(w *World, g int) *Substrate {
	n := w.cfg.GroupSize
	s := &Substrate{
		w: w, group: g, lo: g * n, now: -1,
		ids:    make([]substrate.VMID, n),
		index:  make(map[substrate.VMID]int, n),
		allocs: make([]substrate.Allocation, n),
	}
	for i := range s.ids {
		id := substrate.VMID(VMName(s.lo + i))
		s.ids[i] = id
		s.index[id] = i
		s.allocs[i] = substrate.Allocation{CPUPct: 100, MemMB: 512}
	}
	return s
}

// Actions returns how many actuations the control loop has issued.
func (s *Substrate) Actions() int { return s.actions }

// Advance implements substrate.MetricSource.
func (s *Substrate) Advance(now simclock.Time) {
	// The engine's world-advance hook and the sampler both call this
	// for the same second; the group scan runs once.
	if t := now.Seconds(); t != s.now {
		s.now = t
		s.viol = s.w.Violated(s.group, t)
	}
}

// Sample implements substrate.MetricSource.
func (s *Substrate) Sample(id substrate.VMID) (metrics.Vector, error) {
	i, ok := s.index[id]
	if !ok {
		return metrics.Vector{}, substrate.ErrNoSuchVM
	}
	var v metrics.Vector
	if s.Timed {
		t0 := time.Now()
		s.w.Row(s.lo+i, s.now, &v)
		s.SampleTime += time.Since(t0)
		return v, nil
	}
	s.w.Row(s.lo+i, s.now, &v)
	return v, nil
}

// VMs implements substrate.Inventory.
func (s *Substrate) VMs() []substrate.VMID {
	out := make([]substrate.VMID, len(s.ids))
	copy(out, s.ids)
	return out
}

// Allocation implements substrate.Inventory.
func (s *Substrate) Allocation(id substrate.VMID) (substrate.Allocation, error) {
	i, ok := s.index[id]
	if !ok {
		return substrate.Allocation{}, substrate.ErrNoSuchVM
	}
	return s.allocs[i], nil
}

// Migrating implements substrate.Inventory: migrations land instantly.
func (s *Substrate) Migrating(id substrate.VMID) (bool, error) {
	if _, ok := s.index[id]; !ok {
		return false, substrate.ErrNoSuchVM
	}
	return false, nil
}

// ScaleCPU implements substrate.Actuator.
func (s *Substrate) ScaleCPU(_ simclock.Time, id substrate.VMID, cpuPct float64) error {
	i, ok := s.index[id]
	if !ok {
		return substrate.ErrNoSuchVM
	}
	s.allocs[i].CPUPct = cpuPct
	s.actions++
	return nil
}

// ScaleMem implements substrate.Actuator.
func (s *Substrate) ScaleMem(_ simclock.Time, id substrate.VMID, memMB float64) error {
	i, ok := s.index[id]
	if !ok {
		return substrate.ErrNoSuchVM
	}
	s.allocs[i].MemMB = memMB
	s.actions++
	return nil
}

// Migrate implements substrate.Actuator.
func (s *Substrate) Migrate(_ simclock.Time, id substrate.VMID, cpuPct, memMB float64) error {
	i, ok := s.index[id]
	if !ok {
		return substrate.ErrNoSuchVM
	}
	s.allocs[i] = substrate.Allocation{CPUPct: cpuPct, MemMB: memMB}
	s.actions++
	return nil
}

// MigrationSeconds implements substrate.Actuator.
func (s *Substrate) MigrationSeconds(memMB float64) int64 { return int64(7 + memMB/330) }

// App is the managed application over a Substrate: its SLO state is the
// world's group label at the substrate's current second.
type App struct{ sub *Substrate }

// NewApp wraps the substrate as the control loop's application.
func NewApp(sub *Substrate) *App { return &App{sub: sub} }

// Tick implements control.App; the world advances through the
// substrate.
func (a *App) Tick(simclock.Time) {}

// SLOViolated implements control.App.
func (a *App) SLOViolated() bool { return a.sub.viol }

// SLOMetric implements control.App.
func (a *App) SLOMetric() float64 {
	if a.sub.viol {
		return 1
	}
	return 0
}

// VMIDs implements control.App.
func (a *App) VMIDs() []substrate.VMID { return a.sub.VMs() }
