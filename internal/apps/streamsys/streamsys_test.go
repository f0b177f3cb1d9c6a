package streamsys

import (
	"testing"

	"prepare/internal/cloudsim"
	"prepare/internal/simclock"
	"prepare/internal/workload"
)

func newCluster(t *testing.T, hosts int) (*cloudsim.Cluster, []cloudsim.HostID) {
	t.Helper()
	c := cloudsim.NewCluster()
	ids := make([]cloudsim.HostID, 0, hosts)
	for i := 0; i < hosts; i++ {
		id := cloudsim.HostID(rune('a' + i))
		if _, err := c.AddDefaultHost(id); err != nil {
			t.Fatalf("AddDefaultHost: %v", err)
		}
		ids = append(ids, id)
	}
	return c, ids
}

func newApp(t *testing.T, input workload.Generator) (*App, *cloudsim.Cluster) {
	t.Helper()
	c, ids := newCluster(t, 7)
	app, err := New(c, Config{Input: input, HostIDs: ids})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return app, c
}

func run(app *App, c *cloudsim.Cluster, from, to int64) {
	for s := from; s < to; s++ {
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
	}
}

func TestNewValidation(t *testing.T) {
	c, ids := newCluster(t, 2)
	if _, err := New(nil, Config{HostIDs: ids}); err == nil {
		t.Error("nil cluster should fail")
	}
	if _, err := New(c, Config{}); err == nil {
		t.Error("no hosts should fail")
	}
}

func TestSevenPEsPlaced(t *testing.T) {
	app, c := newApp(t, nil)
	if got := len(app.VMIDs()); got != 7 {
		t.Fatalf("placed %d VMs, want 7", got)
	}
	for _, id := range app.VMIDs() {
		if _, err := c.VM(id); err != nil {
			t.Errorf("VM %s missing from cluster: %v", id, err)
		}
	}
	if got := len(app.order); got != 7 {
		t.Errorf("topology has %d PEs, want 7", got)
	}
}

func TestSteadyStateMeetsSLO(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 25})
	run(app, c, 0, 60)
	if app.SLOViolated() {
		t.Errorf("steady state violates SLO: out/in = %.3f/%.3f, tuple %.1fms",
			app.outputRate, app.inputRate, app.avgTupleMs)
	}
	ratio := app.outputRate / app.inputRate
	if ratio < 0.99 {
		t.Errorf("steady-state throughput ratio = %.3f, want ~1", ratio)
	}
	if app.avgTupleMs >= SLOTupleTimeMs {
		t.Errorf("steady-state tuple time %.1f ms exceeds SLO", app.avgTupleMs)
	}
}

func TestZeroInputNoViolation(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 0})
	run(app, c, 0, 10)
	if app.SLOViolated() {
		t.Error("zero input must not violate the SLO")
	}
}

func TestMemoryLeakCausesGradualViolation(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 25})
	run(app, c, 0, 30)
	vm, err := c.VM("vm-pe6")
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := vm.FreeMemMB()
	violatedAt := int64(-1)
	for s := int64(30); s < 400; s++ {
		vm.LeakedMB += 1.5 // leak injector behaviour
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
		if violatedAt < 0 && app.SLOViolated() {
			violatedAt = s
		}
	}
	if violatedAt < 0 {
		t.Fatal("memory leak never caused an SLO violation")
	}
	if violatedAt < 70 {
		t.Errorf("leak violated SLO at %ds — too sudden, want gradual onset", violatedAt)
	}
	if vm.FreeMemMB() >= freeBefore {
		t.Error("free memory should decline under a leak")
	}
}

func TestCPUHogCausesFastViolation(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 25})
	run(app, c, 0, 30)
	if app.SLOViolated() {
		t.Fatal("pre-fault violation")
	}
	vm, err := c.VM("vm-pe6")
	if err != nil {
		t.Fatal(err)
	}
	vm.ExternalCPU = 60
	violatedAt := int64(-1)
	for s := int64(30); s < 120; s++ {
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
		if violatedAt < 0 && app.SLOViolated() {
			violatedAt = s
		}
	}
	if violatedAt < 0 {
		t.Fatal("CPU hog never caused an SLO violation")
	}
	if violatedAt > 45 {
		t.Errorf("hog violated SLO at %ds — should manifest quickly", violatedAt)
	}
}

func TestBottleneckRampSaturatesPE6First(t *testing.T) {
	ramp := workload.Ramp{Start: 25, Peak: 45, RampFrom: 30, RampTo: 230}
	app, c := newApp(t, ramp)
	violated := false
	for s := int64(0); s < 300 && !violated; s++ {
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
		violated = app.SLOViolated()
	}
	if !violated {
		t.Fatal("ramp never violated the SLO")
	}
	// The bottleneck PE's VM should be the busiest.
	var busiest cloudsim.VMID
	busiestUtil := 0.0
	for _, id := range app.VMIDs() {
		vm, err := c.VM(id)
		if err != nil {
			t.Fatal(err)
		}
		util := vm.CPUUsage / vm.CPUAllocation
		if util > busiestUtil {
			busiestUtil = util
			busiest = id
		}
	}
	if busiest != "vm-pe6" {
		t.Errorf("busiest VM = %s, want vm-pe6 (the bottleneck)", busiest)
	}
}

func TestMemScalingRecoversLeak(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 25})
	vm, err := c.VM("vm-pe3")
	if err != nil {
		t.Fatal(err)
	}
	// Drive the VM into memory pressure.
	vm.LeakedMB = 240
	run(app, c, 0, 30)
	if !app.SLOViolated() {
		t.Fatal("expected violation under leak pressure")
	}
	// Memory scaling (the paper's prevention for leaks) restores headroom.
	if err := c.ScaleMem(30, "vm-pe3", 1024); err != nil {
		t.Fatalf("ScaleMem: %v", err)
	}
	run(app, c, 30, 90)
	if app.SLOViolated() {
		t.Errorf("SLO still violated after memory scaling: tuple %.1fms ratio %.3f",
			app.avgTupleMs, app.outputRate/app.inputRate)
	}
}

func TestCPUScalingRecoversHog(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 25})
	vm, err := c.VM("vm-pe6")
	if err != nil {
		t.Fatal(err)
	}
	vm.ExternalCPU = 60
	run(app, c, 0, 30)
	if !app.SLOViolated() {
		t.Fatal("expected violation under CPU hog")
	}
	if err := c.ScaleCPU(30, "vm-pe6", 190); err != nil {
		t.Fatalf("ScaleCPU: %v", err)
	}
	run(app, c, 30, 120)
	if app.SLOViolated() {
		t.Errorf("SLO still violated after CPU scaling: tuple %.1fms ratio %.3f",
			app.avgTupleMs, app.outputRate/app.inputRate)
	}
}

func TestSLOMetricIsThroughput(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 25})
	run(app, c, 0, 20)
	if app.SLOMetric() != app.outputRate {
		t.Error("SLOMetric should report output throughput")
	}
	if app.SLOMetric() < 20 {
		t.Errorf("steady throughput = %.1f Ktuples/s, want ~25", app.SLOMetric())
	}
}

func TestResourceUsagePublished(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 25})
	run(app, c, 0, 10)
	for _, id := range app.VMIDs() {
		vm, err := c.VM(id)
		if err != nil {
			t.Fatal(err)
		}
		if vm.CPUUsage <= 0 {
			t.Errorf("%s: no CPU usage published", id)
		}
		if vm.WorkingSetMB <= 0 {
			t.Errorf("%s: no working set published", id)
		}
		if vm.NetInKBps < 0 || vm.NetOutKBps <= 0 {
			t.Errorf("%s: network usage not published", id)
		}
		if vm.CPUUsage > vm.CPUAllocation+1e-9 {
			t.Errorf("%s: CPU usage %.1f exceeds allocation %.1f", id, vm.CPUUsage, vm.CPUAllocation)
		}
	}
}
