package infer

import (
	"math/rand"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

func TestDiagnoseRanksPositiveStrengths(t *testing.T) {
	verdict := detector.Verdict{
		Score: 2.5,
		Strengths: []detector.Strength{
			{Attribute: metrics.FreeMem.Index(), L: 3.1},
			{Attribute: metrics.Load1.Index(), L: 2.0},
			{Attribute: metrics.NetIn.Index(), L: 0.4},
			{Attribute: metrics.NetOut.Index(), L: -0.14},
		},
	}
	d, err := Diagnose("vm-db", verdict)
	if err != nil {
		t.Fatal(err)
	}
	if d.VM != "vm-db" || d.Score != 2.5 {
		t.Errorf("diagnosis meta = %+v", d)
	}
	// Only the three positive strengths, in order.
	want := []metrics.Attribute{metrics.FreeMem, metrics.Load1, metrics.NetIn}
	if len(d.Ranked) != len(want) {
		t.Fatalf("ranked = %v", d.Ranked)
	}
	for i := range want {
		if d.Ranked[i] != want[i] {
			t.Errorf("ranked[%d] = %v, want %v", i, d.Ranked[i], want[i])
		}
	}
	top, ok := d.TopAttribute()
	if !ok || top != metrics.FreeMem {
		t.Errorf("TopAttribute = %v, %v", top, ok)
	}
}

func TestDiagnoseNoPositiveStrengths(t *testing.T) {
	verdict := detector.Verdict{
		Strengths: []detector.Strength{{Attribute: 0, L: -1}},
	}
	d, err := Diagnose("vm1", verdict)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.TopAttribute(); ok {
		t.Error("no positive strengths should yield no top attribute")
	}
}

func TestDiagnoseBadIndex(t *testing.T) {
	verdict := detector.Verdict{
		Strengths: []detector.Strength{{Attribute: 99, L: 1}},
	}
	if _, err := Diagnose("vm1", verdict); err == nil {
		t.Error("out-of-range attribute index should fail")
	}
}

func TestResourceFor(t *testing.T) {
	tests := []struct {
		attr metrics.Attribute
		want ResourceKind
	}{
		{metrics.CPUTotal, ResourceCPU},
		{metrics.CPUUser, ResourceCPU},
		{metrics.Load1, ResourceCPU},
		{metrics.CtxSwitch, ResourceCPU},
		{metrics.FreeMem, ResourceMemory},
		{metrics.MemUsed, ResourceMemory},
		{metrics.PageFaults, ResourceMemory},
		{metrics.NetIn, ResourceOther},
		{metrics.DiskWrite, ResourceOther},
	}
	for _, tt := range tests {
		if got := ResourceFor(tt.attr); got != tt.want {
			t.Errorf("ResourceFor(%v) = %v, want %v", tt.attr, got, tt.want)
		}
	}
}

func TestRankedResourcesDedupes(t *testing.T) {
	d := Diagnosis{Ranked: []metrics.Attribute{
		metrics.FreeMem, metrics.PageFaults, metrics.NetIn, metrics.CPUTotal, metrics.Load1,
	}}
	got := RankedResources(d)
	want := []ResourceKind{ResourceMemory, ResourceCPU}
	if len(got) != len(want) {
		t.Fatalf("resources = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resource[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestResourceKindString(t *testing.T) {
	if ResourceCPU.String() != "cpu" || ResourceMemory.String() != "memory" || ResourceOther.String() != "other" {
		t.Error("resource names wrong")
	}
}

func TestNewChangeDetectorValidation(t *testing.T) {
	if _, err := NewChangeDetector(1, 5); err == nil {
		t.Error("tiny warmup should fail")
	}
	if _, err := NewChangeDetector(10, 0); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestChangeDetectorFlagsLevelShift(t *testing.T) {
	d, err := NewChangeDetector(30, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	detected := false
	for i := 0; i < 120; i++ {
		v := 10 + rng.NormFloat64()
		if i >= 60 {
			v += 8 // level shift
		}
		change := d.Offer(v)
		if change && i >= 60 {
			detected = true
		}
		if change && i < 55 {
			t.Fatalf("false change point at %d", i)
		}
	}
	if !detected {
		t.Error("level shift not detected")
	}
}

func TestChangeDetectorQuietOnStationary(t *testing.T) {
	d, err := NewChangeDetector(30, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		if d.Offer(20 + rng.NormFloat64()) {
			t.Fatalf("spurious change point at %d", i)
		}
	}
}

func TestChangeDetectorDetectsDownShift(t *testing.T) {
	d, err := NewChangeDetector(20, 8)
	if err != nil {
		t.Fatal(err)
	}
	detected := false
	for i := 0; i < 100; i++ {
		v := 50.0
		if i >= 50 {
			v = 30
		}
		if d.Offer(v) {
			detected = true
		}
	}
	if !detected {
		t.Error("downward shift not detected")
	}
}

func TestWorkloadDetectorValidation(t *testing.T) {
	if _, err := NewWorkloadDetector(0, 10, 30); err == nil {
		t.Error("no VMs should fail")
	}
	if _, err := NewWorkloadDetector(1, 10, 0); err == nil {
		t.Error("zero window should fail")
	}
}

func TestWorkloadDetectorAllComponentsChange(t *testing.T) {
	const vms = 3
	w, err := NewWorkloadDetector(vms, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Steady phase then a simultaneous jump on all VMs (workload change).
	for i := 0; i < 80; i++ {
		now := simclock.Time(i)
		line := make([]float64, vms)
		for vm := range line {
			line[vm] = 10.0
			if i >= 50 {
				line[vm] = 30
			}
		}
		if err := w.OfferLine(now, line); err != nil {
			t.Fatal(err)
		}
		if i < 45 && w.WorkloadChange(now) {
			t.Fatalf("premature workload change at %d", i)
		}
	}
	if !w.WorkloadChange(79) {
		t.Error("simultaneous shift on all VMs should report a workload change")
	}
}

func TestWorkloadDetectorSingleVMChangeIsNotWorkload(t *testing.T) {
	w, err := NewWorkloadDetector(2, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		now := simclock.Time(i)
		v1 := 10.0
		if i >= 50 {
			v1 = 40 // only VM 0 shifts (an internal fault)
		}
		if err := w.OfferLine(now, []float64{v1, 10}); err != nil {
			t.Fatal(err)
		}
	}
	if w.WorkloadChange(79) {
		t.Error("single-VM change must not be classified as workload change")
	}
}

func TestWorkloadDetectorWindowExpiry(t *testing.T) {
	w, err := NewWorkloadDetector(2, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	// vm1 changes early, vm2 changes much later: outside the window.
	for i := 0; i < 200; i++ {
		now := simclock.Time(i)
		v1, v2 := 10.0, 10.0
		if i >= 30 && i < 60 {
			v1 = 40
		}
		if i >= 150 {
			v2 = 40
		}
		if err := w.OfferLine(now, []float64{v1, v2}); err != nil {
			t.Fatal(err)
		}
	}
	if w.WorkloadChange(199) {
		t.Error("changes far apart in time must not count as a workload change")
	}
}

func TestWorkloadDetectorUnknownVM(t *testing.T) {
	w, err := NewWorkloadDetector(1, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range [][]float64{nil, {1, 1}} {
		if err := w.OfferLine(0, line); err == nil {
			t.Errorf("a line of %d values for 1 tracked VM should fail", len(line))
		}
	}
}
