package control

import (
	"testing"

	"prepare/internal/detector"
	"prepare/internal/simclock"
	"prepare/internal/telemetry"
	"prepare/internal/workload"
)

// TestRetrainDeadlineSurvivesNonDivisibleInterval is the regression test
// for the old modulo trigger `(now-TrainAtS) % RetrainIntervalS == 0`,
// which only fired on sampling ticks that happened to land exactly on a
// deadline: with SamplingIntervalS=5 and RetrainIntervalS=7 that is once
// every lcm(5,7)=35 s instead of every 7 s (and never at all for some
// offsets). The deadline schedule fires on the first sampling tick at or
// past each deadline: trained at 100, deadlines 107, 117, 127, ... fire
// at 110, 120, 130, ... — one retrain per 10 s here.
func TestRetrainDeadlineSurvivesNonDivisibleInterval(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	reg := telemetry.New(telemetry.Options{})
	ctl, err := New(SchemePREPARE, sub, app, Config{
		TrainAtS:          100,
		SamplingIntervalS: 5,
		RetrainIntervalS:  7,
		MonitorSeed:       3,
		Telemetry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 240; s++ {
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	// Initial training at 100, then retrains at 110, 120, ..., 240.
	const wantTrainings = 1 + 14
	if got := snap.Counter("control.trainings"); got != wantTrainings {
		t.Errorf("control.trainings = %d, want %d (the modulo trigger managed %d)",
			got, wantTrainings, 1+4) // old: fired only at 135, 170, 205, 240
	}
	// tan with an interval goes incremental: every retrain must
	// have gone through the O(1) path and every post-training sample must
	// have been folded into the statistics.
	if n := snap.Histograms["control.retrain.latency.incremental"].Count; n != 14 {
		t.Errorf("incremental retrain latency count = %d, want 14", n)
	}
	if n := snap.Histograms["control.retrain.latency.batch"].Count; n != 0 {
		t.Errorf("batch retrain latency count = %d, want 0", n)
	}
	if c := snap.Counter("train.incremental.updates"); c == 0 {
		t.Error("no incremental updates recorded despite incremental retraining")
	}
}

// TestPeriodicRetrainingAdaptsViaSeriesRefit re-runs the adaptation scenario
// under a detector with no count-table form (ewma): every periodic
// retrain must refit from the retained series through train() and be
// recorded under the batch latency histogram.
func TestPeriodicRetrainingAdaptsViaSeriesRefit(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	reg := telemetry.New(telemetry.Options{})
	ctl, err := New(SchemePREPARE, sub, app, Config{
		TrainAtS:         200,
		RetrainIntervalS: 200,
		Detector:         detector.Spec{Kind: detector.KindEWMA},
		MonitorSeed:      6,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := c.VM("vm1")
	for s := int64(1); s <= 1000; s++ {
		switch {
		case s == 300 || s == 700:
			vm.ExternalCPU = 70
		case s == 400 || s == 800:
			vm.ExternalCPU = 0
		}
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
	}
	log := ctl.SLOLog()
	first := log.ViolationSeconds(300, 400)
	second := log.ViolationSeconds(700, 800)
	if first == 0 {
		t.Fatal("first occurrence should have violated (models untrained on it)")
	}
	if second >= first {
		t.Errorf("after retraining, second occurrence (%ds) should improve on first (%ds)",
			second, first)
	}
	snap := reg.Snapshot()
	if n := snap.Histograms["control.retrain.latency.batch"].Count; n == 0 {
		t.Error("ewma recorded no batch retrains")
	}
	if n := snap.Histograms["control.retrain.latency.incremental"].Count; n != 0 {
		t.Errorf("ewma recorded %d incremental retrains", n)
	}
	if c := snap.Counter("train.incremental.updates"); c != 0 {
		t.Errorf("ewma recorded %d incremental updates", c)
	}
}

// TestIncrementalTrainingRule pins the one retraining rule: per-VM
// sufficient statistics are maintained iff the detector is pure tan and
// periodic retraining is enabled; everything else fits from the series.
func TestIncrementalTrainingRule(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		retrainS int64
		want     bool
	}{
		{"tan", 0, false},
		{"tan", 300, true},
		{"ewma", 300, false},
		{"kmeans", 300, false},
		{"ensemble:tan+ewma", 300, false},
	} {
		spec, err := detector.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
		ctl, err := New(SchemePREPARE, sub, app, Config{
			TrainAtS:         100,
			RetrainIntervalS: tc.retrainS,
			Detector:         spec,
			MonitorSeed:      3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(1); s <= 100; s++ {
			app.Tick(simclock.Time(s))
			c.Tick(simclock.Time(s))
			if err := ctl.OnTick(simclock.Time(s)); err != nil {
				t.Fatal(err)
			}
		}
		if !ctl.Trained() {
			t.Fatalf("%s: controller never trained", tc.spec)
		}
		for _, v := range ctl.vms {
			if got := v.det.Incremental(); got != tc.want {
				t.Errorf("%s retrain=%ds: %s trained incremental=%v, want %v", tc.spec, tc.retrainS, v.id, got, tc.want)
			}
		}
	}
}

// TestHistoryWindowBoundsSeries: with a bounded history window the
// sampler's series must never exceed the configured ring size while the
// loop still trains and operates normally.
func TestHistoryWindowBoundsSeries(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	ctl, err := New(SchemePREPARE, sub, app, Config{
		TrainAtS:             100,
		RetrainIntervalS:     50,
		HistoryWindowSamples: 40,
		MonitorSeed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 600; s++ {
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
	}
	if !ctl.Trained() {
		t.Fatal("controller never trained")
	}
	series, err := ctl.Sampler().Series("vm1")
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 40 {
		t.Errorf("series retains %d samples, want the 40-sample window", series.Len())
	}
	if series.Limit() != 40 {
		t.Errorf("series limit = %d, want 40", series.Limit())
	}
}
