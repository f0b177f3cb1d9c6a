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

// TestIncrementalTrainingRule pins the one retraining rule by what the
// loop does: a pure tan detector under periodic retraining folds every
// sampled tick after its fit into its counts (Update, counted by
// train.incremental.updates) and retrains from them; a train-once tan
// detector only observes; ewma, kmeans and an ensemble with a tan member
// fold nothing and refit from the series.
func TestIncrementalTrainingRule(t *testing.T) {
	const trainAt, retrainS, end = 100, 300, 420
	for _, tc := range []struct {
		spec     string
		retrainS int64
		fold     bool // every sampled tick after the fit is folded in
		// retrains from the counts and refits from the series
		fromCounts, fromSeries int
	}{
		{"tan", 0, false, 0, 0},
		{"tan", retrainS, true, 1, 0},
		{"ewma", retrainS, false, 0, 1},
		{"kmeans", retrainS, false, 0, 1},
		{"ensemble:tan+ewma", retrainS, false, 0, 1},
	} {
		spec, err := detector.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
		reg := telemetry.New(telemetry.Options{})
		ctl, err := New(SchemePREPARE, sub, app, Config{
			TrainAtS:         trainAt,
			RetrainIntervalS: tc.retrainS,
			Detector:         spec,
			MonitorSeed:      3,
			Telemetry:        reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(1); s <= end; s++ {
			app.Tick(simclock.Time(s))
			c.Tick(simclock.Time(s))
			if err := ctl.OnTick(simclock.Time(s)); err != nil {
				t.Fatal(err)
			}
		}
		if !ctl.Trained() {
			t.Fatalf("%s: controller never trained", tc.spec)
		}
		snap := reg.Snapshot()
		var want int64
		if tc.fold {
			sampled := (end - trainAt) / ctl.cfg.SamplingIntervalS // the ticks after the fit's own
			want = sampled * int64(len(ctl.vms))
		}
		if got := snap.Counter("train.incremental.updates"); got != want {
			t.Errorf("%s retrain=%ds: %d samples folded into the counts, want %d", tc.spec, tc.retrainS, got, want)
		}
		if got := snap.Histograms["control.retrain.latency.incremental"].Count; got != uint64(tc.fromCounts) {
			t.Errorf("%s retrain=%ds: %d retrains from the counts, want %d", tc.spec, tc.retrainS, got, tc.fromCounts)
		}
		if got := snap.Histograms["control.retrain.latency.batch"].Count; got != uint64(tc.fromSeries) {
			t.Errorf("%s retrain=%ds: %d refits from the series, want %d", tc.spec, tc.retrainS, got, tc.fromSeries)
		}
	}
}

// TestHistoryWindowBoundsSeries: with a bounded history window the
// store must never hold more than the configured number of ticks while
// the loop still trains and operates normally.
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
	if n := len(ctl.Dataset()["vm1"]); n != 40 {
		t.Errorf("history retains %d samples, want the 40-tick window", n)
	}
	if n := ctl.store.Ticks(); n != 40 {
		t.Errorf("store holds %d ticks, want the 40-tick window", n)
	}
}
