// Package infer implements PREPARE's online anomaly cause inference:
// pinpointing faulty VMs (the per-VM prediction models that raise
// confirmed alerts), ranking the system metrics most related to the
// predicted anomaly via the TAN attribute strengths (Equation 2 /
// Figure 3), and distinguishing external workload changes from internal
// faults by checking whether all application components exhibit change
// points in some system metrics simultaneously.
package infer

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// Diagnosis identifies a faulty VM and the metrics implicated in its
// predicted anomaly.
type Diagnosis struct {
	VM substrate.VMID
	// Ranked lists the attributes by decreasing impact strength L_i;
	// only attributes with positive strength (i.e., evidence toward
	// "abnormal") are included.
	Ranked []metrics.Attribute
	// Strengths carries the full strength list for diagnostics.
	Strengths []detector.Strength
	// Score is the detector's decision value of the alerting prediction.
	Score float64
}

// TopAttribute returns the highest-ranked implicated attribute, comma-ok
// style.
func (d Diagnosis) TopAttribute() (metrics.Attribute, bool) {
	if len(d.Ranked) == 0 {
		return 0, false
	}
	return d.Ranked[0], true
}

// Diagnose converts a per-VM alerting verdict into a diagnosis. The
// verdict's strength indices must refer to the 13 metrics attributes in
// canonical order (as produced by per-VM detectors).
func Diagnose(vm substrate.VMID, verdict detector.Verdict) (Diagnosis, error) {
	d := Diagnosis{VM: vm, Score: verdict.Score}
	d.Strengths = append(d.Strengths, verdict.Strengths...)
	for _, s := range verdict.Strengths {
		if s.Attribute < 0 || s.Attribute >= metrics.NumAttributes {
			return Diagnosis{}, fmt.Errorf("infer: strength attribute index %d out of range", s.Attribute)
		}
		if s.L > 0 {
			d.Ranked = append(d.Ranked, metrics.Attribute(s.Attribute+1))
		}
	}
	return d, nil
}

// ResourceKind is the coarse resource class a metric maps onto for
// prevention actuation.
type ResourceKind int

// Resource classes.
const (
	ResourceCPU ResourceKind = iota + 1
	ResourceMemory
	ResourceOther
)

// String returns the resource name.
func (r ResourceKind) String() string {
	switch r {
	case ResourceCPU:
		return "cpu"
	case ResourceMemory:
		return "memory"
	case ResourceOther:
		return "other"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// ResourceFor maps an implicated metric onto the resource a prevention
// action should scale. CPU-ish metrics (CPU usage, load, context
// switches) map to CPU; memory metrics (free memory, used memory, page
// faults) map to memory; network and disk metrics have no scaling
// actuator and map to ResourceOther (the actuation policy then falls
// back to CPU scaling or migration).
func ResourceFor(a metrics.Attribute) ResourceKind {
	switch a {
	case metrics.CPUUser, metrics.CPUSystem, metrics.CPUTotal, metrics.Load1, metrics.Load5, metrics.CtxSwitch:
		return ResourceCPU
	case metrics.FreeMem, metrics.MemUsed, metrics.PageFaults:
		return ResourceMemory
	default:
		return ResourceOther
	}
}

// RankedResources collapses a diagnosis' ranked attributes into an
// ordered, de-duplicated list of resources to try scaling, skipping
// ResourceOther entries.
func RankedResources(d Diagnosis) []ResourceKind {
	var out []ResourceKind
	for _, a := range d.Ranked {
		if r := ResourceFor(a); r != ResourceOther && !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// ChangeDetector is a two-sided CUSUM change-point detector over a
// single metric stream. Statistics (mean and standard deviation) are
// learned from the first warmup observations, after which positive or
// negative drifts beyond the threshold raise a change point.
type ChangeDetector struct {
	warmup    int
	threshold float64 // in standard deviations of accumulated drift
	slack     float64 // per-step slack (also in stds)

	n        int
	mean, m2 float64
	// std is the warm-up's standard deviation, floored at 1e-9, set by
	// its last observation: m2 does not change after it.
	std        float64
	sPos, sNeg float64
}

// NewChangeDetector builds a detector. warmup must cover enough samples
// to estimate the baseline; threshold is the CUSUM alarm level in
// standard deviations (typical 4-6).
func NewChangeDetector(warmup int, threshold float64) (*ChangeDetector, error) {
	if warmup < 2 {
		return nil, fmt.Errorf("infer: warmup %d must be >= 2", warmup)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("infer: threshold %g must be positive", threshold)
	}
	return &ChangeDetector{warmup: warmup, threshold: threshold, slack: 0.75}, nil
}

// Offer feeds the next observation and reports whether a change point
// was detected at this observation.
func (c *ChangeDetector) Offer(value float64) bool {
	c.n++
	if c.n <= c.warmup {
		// Welford's online mean/variance during warmup.
		delta := value - c.mean
		c.mean += delta / float64(c.n)
		c.m2 += delta * (value - c.mean)
		if c.n == c.warmup {
			c.std = math.Sqrt(c.m2 / float64(c.warmup-1))
			if c.std < 1e-9 {
				c.std = 1e-9
			}
		}
		return false
	}
	z := (value - c.mean) / c.std
	c.sPos = math.Max(0, c.sPos+z-c.slack)
	c.sNeg = math.Max(0, c.sNeg-z-c.slack)
	if c.sPos > c.threshold || c.sNeg > c.threshold {
		c.sPos, c.sNeg = 0, 0
		return true
	}
	return false
}

// WorkloadDetector decides whether an anomaly alert is explained by an
// external workload change: if all application components exhibit change
// points in some system metric within a short window of each other, the
// cause is workload, not an internal fault. VMs are tracked by index
// (the caller's dense VM order), so the per-sample path does no lookups.
type WorkloadDetector struct {
	windowS int64
	vms     []trackedVM
}

// trackedVM is one VM's change detector and its latest change point.
type trackedVM struct {
	cd        ChangeDetector
	changedAt simclock.Time
	changed   bool
}

// NewWorkloadDetector builds a detector over n VMs, indexed 0..n-1.
// windowS is the simultaneity window in seconds.
func NewWorkloadDetector(n, warmup int, windowS int64) (*WorkloadDetector, error) {
	if n <= 0 {
		return nil, errors.New("infer: at least one VM is required")
	}
	if windowS <= 0 {
		return nil, fmt.Errorf("infer: window %d must be positive", windowS)
	}
	w := &WorkloadDetector{windowS: windowS, vms: make([]trackedVM, n)}
	for i := range w.vms {
		cd, err := NewChangeDetector(warmup, 8)
		if err != nil {
			return nil, err
		}
		w.vms[i].cd = *cd
	}
	return w, nil
}

// OfferLine feeds every VM's tracked metric value at the given
// instant: VM i's is line[i], so a columnar store's Column is a line.
// The line must hold one value per tracked VM.
func (w *WorkloadDetector) OfferLine(now simclock.Time, line []float64) error {
	if len(line) != len(w.vms) {
		return fmt.Errorf("infer: a line of %d values for %d tracked VMs", len(line), len(w.vms))
	}
	for i, value := range line {
		if v := &w.vms[i]; v.cd.Offer(value) {
			v.changedAt, v.changed = now, true
		}
	}
	return nil
}

// WorkloadChange reports whether every tracked VM has a change point
// within the simultaneity window ending at now.
func (w *WorkloadDetector) WorkloadChange(now simclock.Time) bool {
	for _, v := range w.vms {
		if !v.changed || now.Sub(v.changedAt) > w.windowS {
			return false
		}
	}
	return true
}
