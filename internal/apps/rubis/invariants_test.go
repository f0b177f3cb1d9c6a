package rubis

import (
	"testing"
	"testing/quick"

	"prepare/internal/cloudsim"
	"prepare/internal/simclock"
	"prepare/internal/workload"
)

// TestPropertyNoRequestCreation: cumulative completions never exceed
// cumulative offered load plus the in-flight queue capacity.
func TestPropertyNoRequestCreation(t *testing.T) {
	f := func(rateRaw, hogRaw, leakRaw uint8) bool {
		rate := 20 + float64(rateRaw)
		c := cloudsim.NewCluster()
		var ids []cloudsim.HostID
		for i := 0; i < 4; i++ {
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
		vm, err := c.VM("vm-db")
		if err != nil {
			return false
		}
		vm.ExternalCPU = float64(hogRaw % 130)
		vm.LeakedMB = float64(leakRaw) * 2

		var offered, done float64
		for s := int64(1); s <= 120; s++ {
			now := simclock.Time(s)
			app.Tick(now)
			c.Tick(now)
			offered += app.reqRate
			done += app.doneRate
			if app.SLOMetric() < 0 || app.doneRate < 0 {
				return false
			}
		}
		const maxInFlight = 4 * queueCapReqs
		return done <= offered+maxInFlight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyResponseCapped: the modeled response time never exceeds
// the simulator's cap nor goes negative, under arbitrary faults.
func TestPropertyResponseCapped(t *testing.T) {
	f := func(hogRaw, leakRaw, rateRaw uint8) bool {
		c := cloudsim.NewCluster()
		var ids []cloudsim.HostID
		for i := 0; i < 4; i++ {
			id := cloudsim.HostID(rune('a' + i))
			if _, err := c.AddDefaultHost(id); err != nil {
				return false
			}
			ids = append(ids, id)
		}
		app, err := New(c, Config{
			Input:   workload.Constant{Value: 10 + float64(rateRaw)},
			HostIDs: ids,
		})
		if err != nil {
			return false
		}
		vm, err := c.VM("vm-db")
		if err != nil {
			return false
		}
		vm.ExternalCPU = float64(hogRaw)
		vm.LeakedMB = float64(leakRaw) * 3
		for s := int64(1); s <= 80; s++ {
			app.Tick(simclock.Time(s))
			c.Tick(simclock.Time(s))
			if app.SLOMetric() < 0 || app.SLOMetric() > respCapMs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRecoveryAfterHogRemoved: when the hog ends, the service returns
// below the SLO threshold within a bounded time (queue drain + swap
// debt).
func TestRecoveryAfterHogRemoved(t *testing.T) {
	app, c := newApp(t, workload.Constant{Value: 80})
	vm, err := c.VM("vm-db")
	if err != nil {
		t.Fatal(err)
	}
	run(app, c, 0, 30)
	vm.ExternalCPU = 90
	run(app, c, 30, 180)
	vm.ExternalCPU = 0
	run(app, c, 180, 400)
	if app.SLOViolated() {
		t.Errorf("SLO still violated 220s after hog removal: %.1f ms", app.SLOMetric())
	}
}
