// Package faults implements the three fault injectors of the paper's
// evaluation: memory leak, CPU hog, and bottleneck (gradual workload
// overload), plus an injection schedule that replays the paper's
// protocol of two identical injections per run (the prediction model
// learns the anomaly during the first injection and predicts the second).
package faults

import (
	"fmt"

	"prepare/internal/cloudsim"
	"prepare/internal/simclock"
	"prepare/internal/workload"
)

// Kind identifies the fault class.
type Kind int

// The fault classes used in the paper's experiments.
const (
	MemoryLeak Kind = iota + 1
	CPUHog
	Bottleneck
)

// String returns the fault name.
func (k Kind) String() string {
	switch k {
	case MemoryLeak:
		return "memleak"
	case CPUHog:
		return "cpuhog"
	case Bottleneck:
		return "bottleneck"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Injector perturbs the simulated system while active. Apply must be
// called exactly once per simulated second, before the application tick.
type Injector interface {
	// Apply advances the fault's effect at the given instant.
	Apply(now simclock.Time)
}

// LeakInjector grows a VM's leaked memory linearly while active — the
// paper's "continuous memory allocations but forgets to release" bug.
// When the injection window ends, the leaking process exits and its
// memory is reclaimed.
type LeakInjector struct {
	cluster    *cloudsim.Cluster
	vm         cloudsim.VMID
	rateMBps   float64
	start, end simclock.Time
	cleaned    bool
}

var _ Injector = (*LeakInjector)(nil)

// NewLeak builds a leak injector against the VM over [start, end).
func NewLeak(cluster *cloudsim.Cluster, vm cloudsim.VMID, rateMBps float64, start, end simclock.Time) (*LeakInjector, error) {
	if cluster == nil {
		return nil, fmt.Errorf("faults: cluster is required")
	}
	if _, err := cluster.VM(vm); err != nil {
		return nil, fmt.Errorf("faults: leak target: %w", err)
	}
	if rateMBps <= 0 {
		return nil, fmt.Errorf("faults: leak rate %g must be positive", rateMBps)
	}
	if !start.Before(end) {
		return nil, fmt.Errorf("faults: window [%v, %v) is empty", start, end)
	}
	return &LeakInjector{cluster: cluster, vm: vm, rateMBps: rateMBps, start: start, end: end}, nil
}

// Apply implements Injector.
func (l *LeakInjector) Apply(now simclock.Time) {
	vm, err := l.cluster.VM(l.vm)
	if err != nil {
		return
	}
	switch {
	case l.Active(now):
		vm.LeakedMB += l.rateMBps
		l.cleaned = false
	case !now.Before(l.end) && !l.cleaned:
		vm.LeakedMB = 0 // leaking process exits; memory reclaimed
		l.cleaned = true
	}
}

// Active reports whether the fault is being injected at the instant.
func (l *LeakInjector) Active(now simclock.Time) bool {
	return !now.Before(l.start) && now.Before(l.end)
}

// HogInjector pins an external CPU-bound process inside the VM while
// active — the paper's infinite-loop bug competing with the application.
type HogInjector struct {
	cluster    *cloudsim.Cluster
	vm         cloudsim.VMID
	hogCPU     float64
	start, end simclock.Time
	wasActive  bool
}

var _ Injector = (*HogInjector)(nil)

// NewHog builds a CPU hog injector consuming hogCPU percentage points on
// the VM over [start, end).
func NewHog(cluster *cloudsim.Cluster, vm cloudsim.VMID, hogCPU float64, start, end simclock.Time) (*HogInjector, error) {
	if cluster == nil {
		return nil, fmt.Errorf("faults: cluster is required")
	}
	if _, err := cluster.VM(vm); err != nil {
		return nil, fmt.Errorf("faults: hog target: %w", err)
	}
	if hogCPU <= 0 {
		return nil, fmt.Errorf("faults: hog CPU %g must be positive", hogCPU)
	}
	if !start.Before(end) {
		return nil, fmt.Errorf("faults: window [%v, %v) is empty", start, end)
	}
	return &HogInjector{cluster: cluster, vm: vm, hogCPU: hogCPU, start: start, end: end}, nil
}

// Apply implements Injector.
func (h *HogInjector) Apply(now simclock.Time) {
	vm, err := h.cluster.VM(h.vm)
	if err != nil {
		return
	}
	switch {
	case h.Active(now):
		vm.ExternalCPU = h.hogCPU
		h.wasActive = true
	case h.wasActive:
		// Only the injector that set the hog clears it, exactly once, so
		// a second scheduled injection does not cancel the first.
		vm.ExternalCPU = 0
		h.wasActive = false
	}
}

// Active reports whether the fault is being injected at the instant.
func (h *HogInjector) Active(now simclock.Time) bool {
	return !now.Before(h.start) && now.Before(h.end)
}

// Surge implements the bottleneck fault as a workload transformation:
// while active, the offered load ramps from the baseline up to
// PeakFactor times the baseline and back to normal afterwards — "we
// gradually increase the workload until hitting the capacity limit of
// the bottleneck component". It is both a workload.Generator (wrap the
// app's input with it) and an Injector (for schedule accounting).
type Surge struct {
	Inner      workload.Generator
	PeakFactor float64
	Start, End simclock.Time
	// RampFrac is the fraction of the window spent ramping up (the rest
	// holds at peak). Defaults to 0.6 when zero.
	RampFrac float64
}

var (
	_ workload.Generator = (*Surge)(nil)
	_ Injector           = (*Surge)(nil)
)

// Rate implements workload.Generator.
func (s *Surge) Rate(t simclock.Time) float64 {
	base := s.Inner.Rate(t)
	if !s.Active(t) {
		return base
	}
	rampFrac := s.RampFrac
	if rampFrac == 0 {
		rampFrac = 0.6
	}
	window := float64(s.End.Sub(s.Start))
	rampLen := window * rampFrac
	elapsed := float64(t.Sub(s.Start))
	factor := s.PeakFactor
	if elapsed < rampLen && rampLen > 0 {
		factor = 1 + (s.PeakFactor-1)*elapsed/rampLen
	}
	return base * factor
}

// Apply implements Injector (the surge acts through Rate, so this is a
// no-op).
func (s *Surge) Apply(simclock.Time) {}

// Active reports whether the fault is being injected at the instant.
func (s *Surge) Active(now simclock.Time) bool {
	return !now.Before(s.Start) && now.Before(s.End)
}

// Schedule applies a set of injectors each tick.
type Schedule struct {
	injectors []Injector
}

// NewSchedule bundles injectors.
func NewSchedule(injectors ...Injector) *Schedule {
	return &Schedule{injectors: injectors}
}

// Apply advances every injector.
func (s *Schedule) Apply(now simclock.Time) {
	for _, inj := range s.injectors {
		inj.Apply(now)
	}
}
