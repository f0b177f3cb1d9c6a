package rubis

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
	c, ids := newCluster(t, 4)
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

func TestFourVMsPlaced(t *testing.T) {
	app, c := newApp(t, nil)
	ids := app.VMIDs()
	if len(ids) != 4 {
		t.Fatalf("placed %d VMs, want 4", len(ids))
	}
	for _, id := range ids {
		if _, err := c.VM(id); err != nil {
			t.Errorf("VM %s missing: %v", id, err)
		}
	}
}

func TestSteadyStateMeetsSLO(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	run(app, c, 0, 60)
	if app.SLOViolated() {
		t.Errorf("steady state violates SLO: resp = %.1f ms", app.SLOMetric())
	}
	if app.SLOMetric() <= 0 || app.SLOMetric() >= SLOResponseMs {
		t.Errorf("steady response %.1f ms, want within (0, 200)", app.SLOMetric())
	}
	if ratio := app.doneRate / app.reqRate; ratio < 0.99 {
		t.Errorf("completed/offered = %.3f, want ~1", ratio)
	}
}

func TestNASATraceStaysWithinSLO(t *testing.T) {
	gen, err := workload.NewNASATrace(workload.DefaultNASAConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	app, c := newApp(t, gen)
	violations := 0
	for s := int64(0); s < 1200; s++ {
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
		if app.SLOViolated() {
			violations++
		}
	}
	// The fault-free workload may brush the SLO during extreme bursts but
	// must stay essentially violation-free (< 2% of the run).
	if violations > 24 {
		t.Errorf("fault-free NASA workload violated SLO for %d s of 1200", violations)
	}
}

func TestZeroLoadNoViolation(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 0})
	run(app, c, 0, 10)
	if app.SLOViolated() {
		t.Error("zero load must not violate")
	}
}

func TestDBMemoryLeakGradualViolation(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	vm, err := c.VM("vm-db")
	if err != nil {
		t.Fatal(err)
	}
	run(app, c, 0, 30)
	violatedAt := int64(-1)
	for s := int64(30); s < 500; s++ {
		vm.LeakedMB += 2
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
		if violatedAt < 0 && app.SLOViolated() {
			violatedAt = s
		}
	}
	if violatedAt < 0 {
		t.Fatal("DB memory leak never violated the SLO")
	}
	if violatedAt < 70 {
		t.Errorf("leak violated at %ds — want gradual onset", violatedAt)
	}
}

func TestDBCPUHogFastViolation(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	run(app, c, 0, 30)
	vm, err := c.VM("vm-db")
	if err != nil {
		t.Fatal(err)
	}
	vm.ExternalCPU = 90
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
		t.Fatal("CPU hog never violated the SLO")
	}
	if violatedAt > 40 {
		t.Errorf("hog violated at %ds — should be fast", violatedAt)
	}
}

func TestBottleneckRampViolates(t *testing.T) {
	ramp := workload.Ramp{Start: 90, Peak: 260, RampFrom: 30, RampTo: 330}
	app, c := newApp(t, ramp)
	violated := false
	for s := int64(0); s < 400 && !violated; s++ {
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
		violated = app.SLOViolated()
	}
	if !violated {
		t.Fatal("ramp never violated")
	}
	// DB should be the busiest tier.
	var busiest cloudsim.VMID
	best := 0.0
	for _, id := range app.VMIDs() {
		vm, err := c.VM(id)
		if err != nil {
			t.Fatal(err)
		}
		util := vm.CPUUsage / vm.CPUAllocation
		if util > best {
			best = util
			busiest = id
		}
	}
	if busiest != "vm-db" {
		t.Errorf("busiest VM = %s, want vm-db", busiest)
	}
}

func TestMemScalingRecoversDBLeak(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	vm, err := c.VM("vm-db")
	if err != nil {
		t.Fatal(err)
	}
	vm.LeakedMB = 400
	run(app, c, 0, 30)
	if !app.SLOViolated() {
		t.Fatal("expected violation under leak")
	}
	if err := c.ScaleMem(30, "vm-db", 2048); err != nil {
		t.Fatalf("ScaleMem: %v", err)
	}
	run(app, c, 30, 120)
	if app.SLOViolated() {
		t.Errorf("still violated after memory scaling: %.1f ms", app.SLOMetric())
	}
}

func TestCPUScalingRecoversHog(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	vm, err := c.VM("vm-db")
	if err != nil {
		t.Fatal(err)
	}
	vm.ExternalCPU = 90
	run(app, c, 0, 30)
	if !app.SLOViolated() {
		t.Fatal("expected violation under hog")
	}
	if err := c.ScaleCPU(30, "vm-db", 195); err != nil {
		t.Fatalf("ScaleCPU: %v", err)
	}
	run(app, c, 30, 120)
	if app.SLOViolated() {
		t.Errorf("still violated after CPU scaling: %.1f ms", app.SLOMetric())
	}
}

func TestMigrationRecoversHogViaLargerAllocation(t *testing.T) {
	// Five hosts: four for the tiers plus one idle migration target.
	c, ids := newCluster(t, 5)
	app, err := New(c, Config{Input: workload.Constant{Value: 80}, HostIDs: ids[:4]})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	vm, err := c.VM("vm-db")
	if err != nil {
		t.Fatal(err)
	}
	vm.ExternalCPU = 90
	run(app, c, 0, 30)
	if !app.SLOViolated() {
		t.Fatal("expected violation under hog")
	}
	if err := c.Migrate(30, "vm-db", 195, dbMemMB); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	run(app, c, 30, 120)
	if app.SLOViolated() {
		t.Errorf("still violated after migration: %.1f ms", app.SLOMetric())
	}
	if vm.Host().ID == "d" {
		t.Log("note: db still on original host") // informational only
	}
}

func TestResourceUsagePublished(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	run(app, c, 0, 10)
	for _, id := range app.VMIDs() {
		vm, err := c.VM(id)
		if err != nil {
			t.Fatal(err)
		}
		if vm.CPUUsage <= 0 || vm.WorkingSetMB <= 0 {
			t.Errorf("%s: usage not published (cpu %.1f, ws %.1f)", id, vm.CPUUsage, vm.WorkingSetMB)
		}
		if vm.CPUUsage > vm.CPUAllocation+1e-9 {
			t.Errorf("%s: usage exceeds allocation", id)
		}
	}
	// DB is disk-heavier than web.
	db, _ := c.VM("vm-db")
	web, _ := c.VM("vm-web")
	if db.DiskReadKBps <= web.DiskReadKBps {
		t.Error("db disk reads should exceed web disk reads")
	}
}

func TestSLOMetricIsResponseTime(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	run(app, c, 0, 10)
	if app.SLOMetric() != app.responseMs {
		t.Error("SLOMetric should be the response time")
	}
}
