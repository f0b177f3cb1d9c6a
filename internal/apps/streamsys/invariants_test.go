package streamsys

import (
	"testing"
	"testing/quick"

	"prepare/internal/cloudsim"
	"prepare/internal/simclock"
	"prepare/internal/workload"
)

// TestPropertyNoTupleCreation: over any run, cumulative output can never
// exceed cumulative input (tuples are processed or dropped, never
// created), and every queue stays within its cap.
func TestPropertyNoTupleCreation(t *testing.T) {
	f := func(rateRaw, hogRaw, leakRaw uint8) bool {
		rate := 5 + float64(rateRaw%45)
		c := cloudsim.NewCluster()
		var ids []cloudsim.HostID
		for i := 0; i < 7; i++ {
			id := cloudsim.HostID(rune('a' + i))
			if _, err := c.AddDefaultHost(id); err != nil {
				return false
			}
			ids = append(ids, id)
		}
		app, err := New(c, Config{Input: workload.Constant{Value: rate}, HostIDs: ids})
		if err != nil {
			return false
		}
		// Random perturbations on a mid-pipeline VM.
		vm, err := c.VM("vm-pe4")
		if err != nil {
			return false
		}
		vm.ExternalCPU = float64(hogRaw % 90)
		vm.LeakedMB = float64(leakRaw)

		var inTotal, outTotal float64
		for s := int64(1); s <= 120; s++ {
			now := simclock.Time(s)
			app.Tick(now)
			c.Tick(now)
			inTotal += app.inputRate
			outTotal += app.outputRate
			if app.outputRate < 0 || app.avgTupleMs < 0 {
				return false
			}
		}
		// Allow a tolerance of the total in-flight queue capacity.
		const maxInFlight = 7 * queueCapKTuples
		return outTotal <= inTotal+maxInFlight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCPUUsageWithinAllocation: no VM ever reports more CPU
// usage than its allocation, under any fault combination.
func TestPropertyCPUUsageWithinAllocation(t *testing.T) {
	f := func(hogRaw uint8, leakRaw uint8) bool {
		c := cloudsim.NewCluster()
		var ids []cloudsim.HostID
		for i := 0; i < 7; i++ {
			id := cloudsim.HostID(rune('a' + i))
			if _, err := c.AddDefaultHost(id); err != nil {
				return false
			}
			ids = append(ids, id)
		}
		app, err := New(c, Config{Input: workload.Constant{Value: 25}, HostIDs: ids})
		if err != nil {
			return false
		}
		vm, err := c.VM("vm-pe6")
		if err != nil {
			return false
		}
		vm.ExternalCPU = float64(hogRaw % 150)
		vm.LeakedMB = float64(leakRaw) * 2
		for s := int64(1); s <= 60; s++ {
			app.Tick(simclock.Time(s))
			c.Tick(simclock.Time(s))
			for _, id := range app.VMIDs() {
				v, err := c.VM(id)
				if err != nil {
					return false
				}
				if v.CPUUsage > v.CPUAllocation+1e-9 || v.CPUUsage < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQueuesDrainAfterOverload: once an overload ends, queues drain and
// the SLO recovers within a bounded time.
func TestQueuesDrainAfterOverload(t *testing.T) {
	c := cloudsim.NewCluster()
	var ids []cloudsim.HostID
	for i := 0; i < 7; i++ {
		id := cloudsim.HostID(rune('a' + i))
		if _, err := c.AddDefaultHost(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	surge := workload.Ramp{Start: 25, Peak: 45, RampFrom: 20, RampTo: 60}
	app, err := New(c, Config{Input: &decaying{ramp: surge, backAt: 120, to: 25}, HostIDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 400; s++ {
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
	}
	if app.SLOViolated() {
		t.Errorf("SLO still violated 280s after the overload ended (tuple %.1fms ratio %.2f)",
			app.avgTupleMs, app.outputRate/app.inputRate)
	}
}

type decaying struct {
	ramp   workload.Generator
	backAt int64
	to     float64
}

func (d *decaying) Rate(t simclock.Time) float64 {
	if t.Seconds() >= d.backAt {
		return d.to
	}
	return d.ramp.Rate(t)
}
