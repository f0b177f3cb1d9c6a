package monitor

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// flakySource wraps a per-call script: each Sample pops the next entry
// (error to inject, or a vector override), falling back to a steady
// base vector. It drives every branch of the sampler's resilience path.
type flakySource struct {
	base metrics.Vector
	// script maps call index (0-based, per Sample call) to an error or
	// an overriding vector.
	errAt map[int]error
	vecAt map[int]metrics.Vector
	calls int
}

func newFlakySource() *flakySource {
	var v metrics.Vector
	for i := range v {
		v[i] = float64(10 + i)
	}
	return &flakySource{base: v, errAt: map[int]error{}, vecAt: map[int]metrics.Vector{}}
}

func (f *flakySource) Advance(simclock.Time) {}

func (f *flakySource) Sample(substrate.VMID) (metrics.Vector, error) {
	i := f.calls
	f.calls++
	if err, ok := f.errAt[i]; ok {
		return metrics.Vector{}, err
	}
	if v, ok := f.vecAt[i]; ok {
		return v, nil
	}
	// Vary one attribute per call so consecutive clean samples are never
	// bitwise-identical (stuck detection must not trip on healthy data).
	v := f.base
	v[0] = float64(i)
	return v, nil
}

// noiseless builds a sampler with measurement noise disabled so the
// collected values can be compared exactly.
func noiseless(t *testing.T, src substrate.MetricSource, res Resilience) *Sampler {
	t.Helper()
	s, err := NewSampler(src, []substrate.VMID{"vm1"}, Config{NoiseStd: -1, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSamplerToleratesTransientSource(t *testing.T) {
	src := newFlakySource()
	src.errAt[0] = fmt.Errorf("probe: %w", substrate.ErrUnavailable)
	if _, err := NewSampler(src, []substrate.VMID{"vm1"}, Config{}); err != nil {
		t.Fatalf("transiently unavailable source rejected at construction: %v", err)
	}

	bad := newFlakySource()
	bad.errAt[0] = substrate.ErrNoSuchVM
	if _, err := NewSampler(bad, []substrate.VMID{"vm1"}, Config{}); err == nil {
		t.Fatal("permanent source error accepted at construction")
	}
}

func TestCollectCarriesForwardOverTransientGaps(t *testing.T) {
	src := newFlakySource()
	// Call 0 is the construction probe; calls 1.. are collect ticks.
	for _, i := range []int{2, 4, 5} {
		src.errAt[i] = fmt.Errorf("gap: %w", substrate.ErrUnavailable)
	}
	// A budget of one stale tick makes the recorded flag show the
	// staleness run: recorded at 0 or 1, unrecorded at 2.
	s := noiseless(t, src, Resilience{MaxStaleTicks: 1})
	store := newHistory(t, s)

	first, err := collectInto(s, store, 5, metrics.LabelNormal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectInto(s, store, 10, metrics.LabelNormal)
	if err != nil {
		t.Fatalf("transient gap surfaced from CollectColumnar: %v", err)
	}
	if got["vm1"].Values != first["vm1"].Values {
		t.Errorf("carried sample = %v, want last good %v", got["vm1"].Values, first["vm1"].Values)
	}
	// Ticks 15 (healthy), 20 (gap) and 25 (gap): the healthy tick resets
	// the run, so the gap after it is recorded again, and consecutive
	// gaps count one stale tick each, so the second one is not.
	want := []bool{true, true, true, true, false}
	for tick := 15; tick <= 25; tick += 5 {
		if _, err := collectInto(s, store, simclock.Time(tick), metrics.LabelNormal); err != nil {
			t.Fatal(err)
		}
	}
	for k, w := range want {
		if got := store.Recorded(len(want)-1-k, 0); got != w {
			t.Errorf("tick %d recorded = %v, want %v", 5*(k+1), got, w)
		}
	}
}

func TestCollectPermanentErrorStillFails(t *testing.T) {
	src := newFlakySource()
	src.errAt[1] = substrate.ErrNoSuchVM
	s := noiseless(t, src, Resilience{})
	if _, err := collect(s, 5, metrics.LabelNormal); !errors.Is(err, substrate.ErrNoSuchVM) {
		t.Fatalf("CollectColumnar error = %v, want ErrNoSuchVM passthrough", err)
	}
}

// TestCollectSanitizesCorruptReadings is the regression test for the
// raw-values-into-discretization bug: NaN, ±Inf, and negative readings
// must be repaired against the last known-good vector before they can
// reach the series that trains the Markov and TAN models.
func TestCollectSanitizesCorruptReadings(t *testing.T) {
	src := newFlakySource()
	poisoned := src.base
	poisoned[1] = math.NaN()
	poisoned[3] = math.Inf(1)
	poisoned[5] = -42
	src.vecAt[2] = poisoned
	s := noiseless(t, src, Resilience{})
	store := newHistory(t, s)

	first, err := collectInto(s, store, 5, metrics.LabelNormal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectInto(s, store, 10, metrics.LabelNormal)
	if err != nil {
		t.Fatal(err)
	}
	v := got["vm1"].Values
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			t.Errorf("attr %d: corrupt value %v survived collection", i, x)
		}
	}
	// Poisoned attributes were patched from the previous good sample.
	if v[1] != first["vm1"].Values[1] || v[3] != first["vm1"].Values[3] || v[5] != first["vm1"].Values[5] {
		t.Errorf("sanitized attrs %v/%v/%v, want fallbacks %v/%v/%v",
			v[1], v[3], v[5], first["vm1"].Values[1], first["vm1"].Values[3], first["vm1"].Values[5])
	}
	// The training history must be clean too.
	for _, sm := range store.Samples(0) {
		for i, x := range sm.Values {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Errorf("history sample t=%v attr %d is corrupt: %v", sm.Time, i, x)
			}
		}
	}
}

func TestStaleBudgetStopsTrainingAppends(t *testing.T) {
	src := newFlakySource()
	for i := 2; i < 20; i++ {
		src.errAt[i] = fmt.Errorf("outage: %w", substrate.ErrUnavailable)
	}
	s := noiseless(t, src, Resilience{MaxStaleTicks: 3})
	store := newHistory(t, s)

	for tick := 1; tick <= 10; tick++ {
		out, err := collectInto(s, store, simclock.Time(tick*5), metrics.LabelNormal)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := out["vm1"]; !ok {
			t.Fatalf("tick %d: control loop got no sample during the outage", tick)
		}
	}
	// 1 healthy sample + MaxStaleTicks carried ones; the rest of the
	// outage must not teach the models a flat line.
	if got, want := len(store.Samples(0)), 1+3; got != want {
		t.Errorf("history length = %d, want %d (healthy + stale budget)", got, want)
	}
}

func TestStuckSensorCountsAgainstBudget(t *testing.T) {
	src := newFlakySource()
	frozen := src.base
	for i := 2; i < 20; i++ {
		src.vecAt[i] = frozen // bitwise-identical reading every tick
	}
	s := noiseless(t, src, Resilience{MaxStaleTicks: 2, StuckThreshold: 3})
	store := newHistory(t, s)

	for tick := 1; tick <= 12; tick++ {
		if _, err := collectInto(s, store, simclock.Time(tick*5), metrics.LabelNormal); err != nil {
			t.Fatal(err)
		}
	}
	if store.Recorded(0, 0) {
		t.Error("frozen sensor never judged stale")
	}
	// The flat line stops being recorded once the budget is spent:
	// strictly fewer recorded samples than collect calls.
	if n := len(store.Samples(0)); n >= 12 {
		t.Errorf("history length = %d; stuck sensor was never cut off", n)
	}

	// With detection disabled (the default), the same frozen source is
	// trusted indefinitely.
	src2 := newFlakySource()
	for i := 2; i < 20; i++ {
		src2.vecAt[i] = frozen
	}
	s2 := noiseless(t, src2, Resilience{})
	store2 := newHistory(t, s2)
	for tick := 1; tick <= 12; tick++ {
		if _, err := collectInto(s2, store2, simclock.Time(tick*5), metrics.LabelNormal); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(store2.Samples(0)); n != 12 {
		t.Errorf("history length = %d with stuck detection off, want 12", n)
	}
}
