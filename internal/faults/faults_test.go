package faults

import (
	"testing"

	"prepare/internal/cloudsim"
	"prepare/internal/simclock"
	"prepare/internal/workload"
)

func newVM(t *testing.T) (*cloudsim.Cluster, *cloudsim.VM) {
	t.Helper()
	c := cloudsim.NewCluster()
	if _, err := c.AddDefaultHost("h1"); err != nil {
		t.Fatal(err)
	}
	vm, err := c.PlaceVM("vm1", "h1", 100, 512)
	if err != nil {
		t.Fatal(err)
	}
	return c, vm
}

func TestKindNames(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{MemoryLeak, "memleak"},
		{CPUHog, "cpuhog"},
		{Bottleneck, "bottleneck"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestNewLeakValidation(t *testing.T) {
	c, _ := newVM(t)
	if _, err := NewLeak(nil, "vm1", 1, 0, 10); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := NewLeak(c, "ghost", 1, 0, 10); err == nil {
		t.Error("unknown VM should fail")
	}
	if _, err := NewLeak(c, "vm1", 0, 0, 10); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewLeak(c, "vm1", 1, 10, 10); err == nil {
		t.Error("empty window should fail")
	}
}

func TestLeakGrowsAndCleansUp(t *testing.T) {
	c, vm := newVM(t)
	leak, err := NewLeak(c, "vm1", 2, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 30; s++ {
		leak.Apply(simclock.Time(s))
	}
	if vm.LeakedMB != 0 {
		t.Errorf("leak not reclaimed after window: %.1f MB", vm.LeakedMB)
	}
	// Re-run only inside the window to check growth.
	c2, vm2 := newVM(t)
	leak2, err := NewLeak(c2, "vm1", 2, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 15; s++ {
		leak2.Apply(simclock.Time(s))
	}
	if vm2.LeakedMB != 10 { // active for t=10..14 → 5 ticks × 2 MB
		t.Errorf("leaked = %.1f MB, want 10", vm2.LeakedMB)
	}
	if !leak2.Active(15) || leak2.Active(25) || leak2.Active(5) {
		t.Error("Active window wrong")
	}
}

func TestLeakCleanupHappensOnce(t *testing.T) {
	c, vm := newVM(t)
	leak, err := NewLeak(c, "vm1", 2, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 10; s++ {
		leak.Apply(simclock.Time(s))
	}
	// Post-window, a prevention action (or another fault) may set leak
	// state; the injector must not keep zeroing it.
	vm.LeakedMB = 42
	leak.Apply(11)
	if vm.LeakedMB != 42 {
		t.Errorf("injector zeroed memory twice: %.1f", vm.LeakedMB)
	}
}

func TestNewHogValidation(t *testing.T) {
	c, _ := newVM(t)
	if _, err := NewHog(nil, "vm1", 50, 0, 10); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := NewHog(c, "ghost", 50, 0, 10); err == nil {
		t.Error("unknown VM should fail")
	}
	if _, err := NewHog(c, "vm1", 0, 0, 10); err == nil {
		t.Error("zero hog should fail")
	}
	if _, err := NewHog(c, "vm1", 50, 20, 10); err == nil {
		t.Error("inverted window should fail")
	}
}

func TestHogSetAndCleared(t *testing.T) {
	c, vm := newVM(t)
	hog, err := NewHog(c, "vm1", 60, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	hog.Apply(5)
	if vm.ExternalCPU != 0 {
		t.Error("hog active too early")
	}
	hog.Apply(10)
	if vm.ExternalCPU != 60 {
		t.Errorf("hog CPU = %g, want 60", vm.ExternalCPU)
	}
	hog.Apply(20)
	if vm.ExternalCPU != 0 {
		t.Errorf("hog not cleared: %g", vm.ExternalCPU)
	}
}

func TestSurgeRampsAndReturnsToBaseline(t *testing.T) {
	s := &Surge{
		Inner:      workload.Constant{Value: 100},
		PeakFactor: 2.0,
		Start:      100,
		End:        200,
		RampFrac:   0.5,
	}
	if got := s.Rate(50); got != 100 {
		t.Errorf("pre-surge rate = %g, want 100", got)
	}
	if got := s.Rate(100); got != 100 {
		t.Errorf("surge start rate = %g, want 100 (ramp begins at 1x)", got)
	}
	mid := s.Rate(125) // halfway up the ramp
	if mid <= 100 || mid >= 200 {
		t.Errorf("mid-ramp rate = %g, want between 100 and 200", mid)
	}
	if got := s.Rate(150); got != 200 {
		t.Errorf("peak rate = %g, want 200", got)
	}
	if got := s.Rate(199); got != 200 {
		t.Errorf("held peak rate = %g, want 200", got)
	}
	if got := s.Rate(200); got != 100 {
		t.Errorf("post-surge rate = %g, want 100", got)
	}
}

func TestSurgeDefaultRampFrac(t *testing.T) {
	s := &Surge{Inner: workload.Constant{Value: 10}, PeakFactor: 3, Start: 0, End: 100}
	if got := s.Rate(60); got != 30 {
		t.Errorf("rate at default ramp end = %g, want 30", got)
	}
}

func TestScheduleAppliesAll(t *testing.T) {
	c, vm := newVM(t)
	leak, err := NewLeak(c, "vm1", 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := NewHog(c, "vm1", 30, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(leak, hog)
	if len(sched.injectors) != 2 {
		t.Fatal("injector count wrong")
	}
	sched.Apply(6)
	if vm.LeakedMB != 1 || vm.ExternalCPU != 30 {
		t.Errorf("schedule apply: leak=%.1f hog=%.1f", vm.LeakedMB, vm.ExternalCPU)
	}
}

func TestTwoInjectionProtocol(t *testing.T) {
	// The paper injects the same fault twice; the schedule composes two
	// injectors of the same kind cleanly.
	c, vm := newVM(t)
	first, err := NewLeak(c, "vm1", 2, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewLeak(c, "vm1", 2, 300, 350)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSchedule(first, second)
	var peaks []float64
	for s := int64(0); s < 400; s++ {
		sched.Apply(simclock.Time(s))
		if s == 149 || s == 349 {
			peaks = append(peaks, vm.LeakedMB)
		}
	}
	if len(peaks) != 2 || peaks[0] < 90 || peaks[1] < 90 {
		t.Errorf("both injections should build leaks: %v", peaks)
	}
	if vm.LeakedMB != 0 {
		t.Errorf("leak not cleaned after second injection: %.1f", vm.LeakedMB)
	}
}
