package monitor

import (
	"testing"
	"testing/quick"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

func TestSLOLogOrdering(t *testing.T) {
	var l SLOLog
	if err := l.Record(10, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(5, true); err == nil {
		t.Error("out-of-order record should fail")
	}
	if err := l.Record(10, true); err != nil {
		t.Errorf("equal-time record should succeed: %v", err)
	}
}

func TestSLOLogViolatedAt(t *testing.T) {
	var l SLOLog
	for _, r := range []SLORecord{
		{Time: 0, Violated: false},
		{Time: 10, Violated: true},
		{Time: 20, Violated: false},
	} {
		if err := l.Record(r.Time, r.Violated); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		at   simclock.Time
		want bool
	}{
		{0, false}, {5, false}, {9, false},
		{10, true}, {15, true}, {19, true},
		{20, false}, {100, false},
	}
	for _, tt := range tests {
		if got := l.ViolatedAt(tt.at); got != tt.want {
			t.Errorf("ViolatedAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
	// Before the first record: not violated.
	var l2 SLOLog
	if err := l2.Record(50, true); err != nil {
		t.Fatal(err)
	}
	if l2.ViolatedAt(10) {
		t.Error("time before first record should not be violated")
	}
}

func TestSLOLogLabel(t *testing.T) {
	var l SLOLog
	if got := l.Label(5); got != metrics.LabelUnknown {
		t.Errorf("empty log label = %v, want unknown", got)
	}
	if err := l.Record(0, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(10, true); err != nil {
		t.Fatal(err)
	}
	if got := l.Label(5); got != metrics.LabelNormal {
		t.Errorf("Label(5) = %v, want normal", got)
	}
	if got := l.Label(15); got != metrics.LabelAbnormal {
		t.Errorf("Label(15) = %v, want abnormal", got)
	}
}

func TestSLOLogViolationSeconds(t *testing.T) {
	var l SLOLog
	if err := l.Record(0, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(10, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(25, false); err != nil {
		t.Fatal(err)
	}
	if got := l.ViolationSeconds(0, 100); got != 15 {
		t.Errorf("ViolationSeconds = %d, want 15", got)
	}
	if got := l.ViolationSeconds(12, 20); got != 8 {
		t.Errorf("partial window = %d, want 8", got)
	}
}

func TestSLOLogViolationsIntervals(t *testing.T) {
	var l SLOLog
	states := []struct {
		t simclock.Time
		v bool
	}{{0, false}, {5, true}, {8, false}, {12, true}, {20, false}}
	for _, s := range states {
		if err := l.Record(s.t, s.v); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Violations(0, 30)
	want := [][2]simclock.Time{{5, 8}, {12, 20}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSLOLogOpenEndedViolation(t *testing.T) {
	var l SLOLog
	if err := l.Record(10, true); err != nil {
		t.Fatal(err)
	}
	got := l.Violations(0, 20)
	if len(got) != 1 || got[0] != [2]simclock.Time{10, 20} {
		t.Errorf("open-ended violation = %v", got)
	}
}

func TestPropertyViolationSecondsMatchesIntervals(t *testing.T) {
	f := func(flips []bool) bool {
		var l SLOLog
		for i, v := range flips {
			if err := l.Record(simclock.Time(i*3), v); err != nil {
				return false
			}
		}
		end := simclock.Time(len(flips)*3 + 5)
		total := l.ViolationSeconds(0, end)
		sum := int64(0)
		for _, iv := range l.Violations(0, end) {
			sum += iv[1].Sub(iv[0])
		}
		return total == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fakeSource is an in-memory substrate.MetricSource: per-VM noise-free
// vectors plus a load EMA integrated on Advance, mirroring how real
// substrates behave.
type fakeSource struct {
	vectors  map[substrate.VMID]metrics.Vector
	demand   map[substrate.VMID]float64
	load1    map[substrate.VMID]float64
	advanced int
}

func newFakeSource() *fakeSource {
	var v metrics.Vector
	v.Set(metrics.CPUTotal, 50)
	v.Set(metrics.CPUUser, 36)
	v.Set(metrics.CPUSystem, 14)
	v.Set(metrics.FreeMem, 212)
	v.Set(metrics.MemUsed, 300)
	v.Set(metrics.NetIn, 800)
	v.Set(metrics.NetOut, 750)
	v.Set(metrics.DiskRead, 60)
	v.Set(metrics.DiskWrite, 30)
	v.Set(metrics.CtxSwitch, 2150)
	v.Set(metrics.PageFaults, 40)
	return &fakeSource{
		vectors: map[substrate.VMID]metrics.Vector{"vm1": v},
		demand:  map[substrate.VMID]float64{"vm1": 0.55},
		load1:   make(map[substrate.VMID]float64),
	}
}

func (f *fakeSource) Advance(simclock.Time) {
	f.advanced++
	for id, d := range f.demand {
		f.load1[id] = 0.28*d + (1-0.28)*f.load1[id]
	}
}

func (f *fakeSource) Sample(id substrate.VMID) (metrics.Vector, error) {
	v, ok := f.vectors[id]
	if !ok {
		return metrics.Vector{}, substrate.ErrNoSuchVM
	}
	v.Set(metrics.Load1, f.load1[id])
	v.Set(metrics.Load5, f.load1[id]*0.9)
	return v, nil
}

func TestNewSamplerValidation(t *testing.T) {
	src := newFakeSource()
	if _, err := NewSampler(nil, []substrate.VMID{"vm1"}, Config{}); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := NewSampler(src, nil, Config{}); err == nil {
		t.Error("no VMs should fail")
	}
	if _, err := NewSampler(src, []substrate.VMID{"ghost"}, Config{}); err == nil {
		t.Error("unknown VM should fail")
	}
}

func TestCollectProducesAllAttributes(t *testing.T) {
	src := newFakeSource()
	s, err := NewSampler(src, []substrate.VMID{"vm1"}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(0)
	samples, err := collect(s, 5, metrics.LabelNormal)
	if err != nil {
		t.Fatal(err)
	}
	sm, ok := samples["vm1"]
	if !ok {
		t.Fatal("no sample for vm1")
	}
	if sm.Time != 5 || sm.Label != metrics.LabelNormal {
		t.Errorf("sample meta = %+v", sm)
	}
	// Core attributes reflect the source state within noise.
	cpu := sm.Values.Get(metrics.CPUTotal)
	if cpu < 35 || cpu > 65 {
		t.Errorf("cpu_total = %.1f, want ~50", cpu)
	}
	free := sm.Values.Get(metrics.FreeMem)
	if free < 150 || free > 280 {
		t.Errorf("free_mem = %.1f, want ~212", free)
	}
	if sm.Values.Get(metrics.NetIn) <= 0 {
		t.Error("net_in should be positive")
	}
	if sm.Values.Get(metrics.Load1) <= 0 {
		t.Error("load1 should be positive after Advance")
	}
	if src.advanced != 1 {
		t.Errorf("source advanced %d times, want 1", src.advanced)
	}
}

// TestCollectAppendsToSeries: every healthy collect is one recorded row
// of the VM's history in the store.
func TestCollectAppendsToSeries(t *testing.T) {
	s, err := NewSampler(newFakeSource(), []substrate.VMID{"vm1"}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := newHistory(t, s)
	for i := int64(0); i < 5; i++ {
		if _, err := collectInto(s, store, simclock.Time(i*5), metrics.LabelNormal); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(store.Samples(0)); n != 5 {
		t.Errorf("history length = %d, want 5", n)
	}
}

func TestNewSamplerRejectsDuplicateVM(t *testing.T) {
	if _, err := NewSampler(newFakeSource(), []substrate.VMID{"vm1", "vm1"}, Config{}); err == nil {
		t.Error("a VM listed twice should fail")
	}
}

func TestSamplerDeterministicForSeed(t *testing.T) {
	mk := func() metrics.Sample {
		s, err := NewSampler(newFakeSource(), []substrate.VMID{"vm1"}, Config{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := collect(s, 0, metrics.LabelNormal)
		if err != nil {
			t.Fatal(err)
		}
		return samples["vm1"]
	}
	a, b := mk(), mk()
	if a.Values != b.Values {
		t.Error("same seed should produce identical samples")
	}
}

func TestNoiseDisabledPassesValuesThrough(t *testing.T) {
	// NoiseStd < 0 turns the sampler into a pass-through, which replayed
	// traces (already noisy) rely on.
	src := newFakeSource()
	s, err := NewSampler(src, []substrate.VMID{"vm1"}, Config{Seed: 7, NoiseStd: -1})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := collect(s, 0, metrics.LabelNormal)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := src.Sample("vm1")
	if samples["vm1"].Values != clean {
		t.Errorf("pass-through sample = %v, want %v", samples["vm1"].Values, clean)
	}
}

// TestNoiseOrderCoversEveryAttribute: noiseOrder names each attribute
// once, so the noised vector writes every attribute, and with noise
// off sampleOne's whole-vector copy is what the per-attribute loop
// would write.
func TestNoiseOrderCoversEveryAttribute(t *testing.T) {
	if len(noiseOrder) != metrics.NumAttributes {
		t.Fatalf("noiseOrder has %d attributes, want %d", len(noiseOrder), metrics.NumAttributes)
	}
	seen := make(map[metrics.Attribute]bool)
	for _, a := range noiseOrder {
		if !a.Valid() || seen[a] {
			t.Fatalf("noiseOrder holds %v twice or out of range", a)
		}
		seen[a] = true
	}
}

func TestNoiseNeverNegative(t *testing.T) {
	src := newFakeSource()
	v := src.vectors["vm1"]
	v.Set(metrics.NetIn, 0.001)
	src.vectors["vm1"] = v
	s, err := NewSampler(src, []substrate.VMID{"vm1"}, Config{Seed: 3, NoiseStd: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		samples, err := collect(s, simclock.Time(i), metrics.LabelNormal)
		if err != nil {
			t.Fatal(err)
		}
		sm := samples["vm1"]
		for _, a := range metrics.AllAttributes() {
			if sm.Values.Get(a) < 0 {
				t.Fatalf("attribute %v negative at tick %d", a, i)
			}
		}
	}
}

func TestLoadEMAConverges(t *testing.T) {
	src := newFakeSource()
	src.demand["vm1"] = 0.8
	s, err := NewSampler(src, []substrate.VMID{"vm1"}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Advance(simclock.Time(i))
	}
	samples, err := collect(s, 1000, metrics.LabelNormal)
	if err != nil {
		t.Fatal(err)
	}
	l1 := samples["vm1"].Values.Get(metrics.Load1)
	if l1 < 0.6 || l1 > 1.0 {
		t.Errorf("load1 = %.2f, want ~0.8", l1)
	}
}

// TestDataset: a collect commits its samples with the tick's time and
// SLO label.
func TestDataset(t *testing.T) {
	s, err := NewSampler(newFakeSource(), []substrate.VMID{"vm1"}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := newHistory(t, s)
	if _, err := collectInto(s, store, 0, metrics.LabelAbnormal); err != nil {
		t.Fatal(err)
	}
	ds := store.Samples(0)
	if len(ds) != 1 || ds[0].Label != metrics.LabelAbnormal || ds[0].Time != 0 {
		t.Errorf("dataset = %+v", ds)
	}
}
