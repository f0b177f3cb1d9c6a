package control

import (
	"fmt"
	"reflect"
	"testing"

	"prepare/internal/cloudsim"
	"prepare/internal/columnar"
	"prepare/internal/detector"
	"prepare/internal/infer"
	"prepare/internal/metrics"
	"prepare/internal/predict"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
	"prepare/internal/workload"
)

// fakeApp is a minimal App implementation with scriptable SLO state and
// one VM whose CPU demand tracks a workload generator.
type fakeApp struct {
	cluster  *cloudsim.Cluster
	vm       cloudsim.VMID
	input    workload.Generator
	violated bool
	metric   float64
}

var _ App = (*fakeApp)(nil)

func (f *fakeApp) Tick(now simclock.Time) {
	vm, err := f.cluster.VM(f.vm)
	if err != nil {
		return
	}
	rate := f.input.Rate(now)
	vm.CPUDemand = rate
	if rate > vm.UsableCPU() {
		vm.CPUUsage = vm.UsableCPU()
		f.violated = true
	} else {
		vm.CPUUsage = rate
		f.violated = false
	}
	vm.WorkingSetMB = 200
	vm.NetInKBps = rate * 10
	vm.NetOutKBps = rate * 9
	vm.DiskReadKBps = 20
	vm.DiskWriteKBs = 10
	f.metric = rate
}

func (f *fakeApp) SLOViolated() bool      { return f.violated }
func (f *fakeApp) SLOMetric() float64     { return f.metric }
func (f *fakeApp) VMIDs() []cloudsim.VMID { return []cloudsim.VMID{f.vm} }

func newFakeWorld(t *testing.T, input workload.Generator) (*cloudsim.Cluster, *cloudsim.Substrate, *fakeApp) {
	t.Helper()
	c := cloudsim.NewCluster()
	if _, err := c.AddDefaultHost("h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDefaultHost("h2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceVM("vm1", "h1", 100, 512); err != nil {
		t.Fatal(err)
	}
	sub, err := cloudsim.NewSubstrate(c, []cloudsim.VMID{"vm1"})
	if err != nil {
		t.Fatal(err)
	}
	return c, sub, &fakeApp{cluster: c, vm: "vm1", input: input}
}

func TestNewValidation(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 50})
	_ = c
	if _, err := New(SchemePREPARE, nil, app, Config{}); err == nil {
		t.Error("nil substrate should fail")
	}
	if _, err := New(SchemePREPARE, sub, nil, Config{}); err == nil {
		t.Error("nil app should fail")
	}
	if _, err := New(Scheme(42), sub, app, Config{}); err == nil {
		t.Error("bad scheme should fail")
	}
	if _, err := New(SchemePREPARE, sub, app, Config{HistoryWindowSamples: -5}); err == nil {
		t.Error("negative history window should fail")
	}
	// The k-of-W filter needs 1 ≤ K ≤ W ≤ 64 (zero means the default).
	for _, kw := range [][2]int{{5, 4}, {-1, 4}, {3, -4}, {3, 65}, {65, 65}} {
		if _, err := New(SchemePREPARE, sub, app, Config{FilterK: kw[0], FilterW: kw[1]}); err == nil {
			t.Errorf("filter K=%d, W=%d should fail", kw[0], kw[1])
		}
	}
	if _, err := New(SchemePREPARE, sub, app, Config{FilterK: 64, FilterW: 64}); err != nil {
		t.Errorf("filter K=64, W=64: %v", err)
	}
}

func TestSchemeStrings(t *testing.T) {
	tests := []struct {
		scheme Scheme
		want   string
	}{
		{SchemeNone, "without-intervention"},
		{SchemeReactive, "reactive"},
		{SchemePREPARE, "prepare"},
	}
	for _, tt := range tests {
		if got := tt.scheme.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.scheme), got, tt.want)
		}
	}
}

func TestNoneSchemeRecordsButNeverActs(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 150}) // always over capacity
	ctl, err := New(SchemeNone, sub, app, Config{TrainAtS: 50, MonitorSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 200; s++ {
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ctl.Steps()) != 0 {
		t.Errorf("none scheme executed %d steps", len(ctl.Steps()))
	}
	if ctl.SLOLog().ViolationSeconds(0, 201) == 0 {
		t.Error("violations should have been recorded")
	}
	if ctl.Trained() {
		t.Error("none scheme should not train models")
	}
}

func TestTrainingHappensAtConfiguredTime(t *testing.T) {
	// Load oscillates under capacity, with a violation episode before the
	// training point so labels exist.
	gen := workload.Ramp{Start: 40, Peak: 160, RampFrom: 60, RampTo: 100}
	c, sub, app := newFakeWorld(t, &phased{ramp: gen, backTo: 40, at: 150})
	ctl, err := New(SchemeReactive, sub, app, Config{TrainAtS: 300, MonitorSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 400; s++ {
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
		if s < 300 && ctl.Trained() {
			t.Fatalf("trained too early at %d", s)
		}
	}
	if !ctl.Trained() {
		t.Error("controller never trained")
	}
}

// phased replays a ramp until `at`, then a constant rate.
type phased struct {
	ramp   workload.Generator
	backTo float64
	at     int64
}

func (p *phased) Rate(t simclock.Time) float64 {
	if t.Seconds() >= p.at {
		return p.backTo
	}
	return p.ramp.Rate(t)
}

func TestReactiveActsOnlyAfterPersistentViolation(t *testing.T) {
	// Violation begins at t=350 (after training at 300): overload by an
	// external CPU hog on the VM.
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	ctl, err := New(SchemeReactive, sub, app, Config{TrainAtS: 300, MonitorSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := c.VM("vm1")
	for s := int64(1); s <= 600; s++ {
		// Create a labeled violation episode during training: t in
		// [100,200) the hog overloads the VM.
		switch {
		case s == 100 || s == 350:
			vm.ExternalCPU = 70
		case s == 200:
			vm.ExternalCPU = 0
		}
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
		if s < 350 && len(ctl.Steps()) > 0 {
			t.Fatalf("reactive acted before the second violation at %d", s)
		}
	}
	steps := ctl.Steps()
	if len(steps) == 0 {
		t.Fatal("reactive never intervened")
	}
	if steps[0].Time.Seconds() < 355 {
		t.Errorf("reactive acted at %v — before the violation persisted", steps[0].Time)
	}
	if steps[0].VM != "vm1" {
		t.Errorf("acted on %s, want vm1", steps[0].VM)
	}
}

func TestPREPAREActsAndRecovers(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	ctl, err := New(SchemePREPARE, sub, app, Config{TrainAtS: 300, MonitorSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := c.VM("vm1")
	for s := int64(1); s <= 700; s++ {
		switch {
		case s == 100 || s == 400:
			vm.ExternalCPU = 70
		case s == 200 || s == 500:
			vm.ExternalCPU = 0
		}
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ctl.Steps()) == 0 {
		t.Fatal("PREPARE never intervened on the recurrent fault")
	}
	// After the action, capacity exceeds demand+hog and the violation
	// clears; the second injection window should show far less violation
	// than the first (which was unprotected training data).
	log := ctl.SLOLog()
	first := log.ViolationSeconds(100, 200)
	second := log.ViolationSeconds(400, 500)
	if second >= first {
		t.Errorf("PREPARE violation %ds not better than unprotected %ds", second, first)
	}
	// Alerts carry the Predicted marker.
	for _, a := range ctl.Alerts() {
		if !a.Predicted {
			t.Error("PREPARE alerts must be marked predicted")
		}
	}
}

func TestRelabelForTrainingGatesNonDeviatingRows(t *testing.T) {
	// 100 baseline rows around 100±1, then 20 "violation" rows: half
	// deviate on two columns, half do not.
	var rows [][]float64
	var labels []metrics.Label
	for i := 0; i < 100; i++ {
		rows = append(rows, []float64{100 + float64(i%3-1)*0.8, 50 + float64(i%5-2)*0.4})
		labels = append(labels, metrics.LabelNormal)
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{100, 50}) // no deviation
		labels = append(labels, metrics.LabelAbnormal)
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{200, 90}) // both columns deviate
		labels = append(labels, metrics.LabelAbnormal)
	}
	predict.RelabelForTraining(rows, labels, 4)
	for i := 100; i < 110; i++ {
		if labels[i] != metrics.LabelNormal {
			t.Errorf("row %d (no deviation) kept abnormal label", i)
		}
	}
	for i := 110; i < 120; i++ {
		if labels[i] != metrics.LabelAbnormal {
			t.Errorf("row %d (deviating) lost abnormal label", i)
		}
	}
}

func TestRelabelForTrainingExtendsPreAnomalyWindow(t *testing.T) {
	var rows [][]float64
	var labels []metrics.Label
	for i := 0; i < 100; i++ {
		rows = append(rows, []float64{100 + float64(i%3-1)*0.8, 50 + float64(i%5-2)*0.4})
		labels = append(labels, metrics.LabelNormal)
	}
	// 6 deviating-but-normal drift rows, then a sustained abnormal
	// episode (long enough to pass the minimum-support check).
	for i := 0; i < 6; i++ {
		rows = append(rows, []float64{150 + float64(i)*10, 70 + float64(i)*4})
		labels = append(labels, metrics.LabelNormal)
	}
	for i := 0; i < 8; i++ {
		rows = append(rows, []float64{220 + float64(i), 95})
		labels = append(labels, metrics.LabelAbnormal)
	}

	predict.RelabelForTraining(rows, labels, 4)
	// The 4 drift rows immediately before the onset become abnormal.
	for i := 102; i < 106; i++ {
		if labels[i] != metrics.LabelAbnormal {
			t.Errorf("drift row %d not extended to abnormal", i)
		}
	}
	// Rows beyond the lookback stay normal.
	if labels[100] != metrics.LabelNormal || labels[101] != metrics.LabelNormal {
		t.Error("extension went past the lookback window")
	}
}

func TestRelabelForTrainingSmallBaseline(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	labels := []metrics.Label{metrics.LabelNormal, metrics.LabelAbnormal}
	predict.RelabelForTraining(rows, labels, 4) // must not panic or relabel
	if labels[1] != metrics.LabelAbnormal {
		t.Error("tiny datasets must keep their labels")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SamplingIntervalS != 5 || cfg.LookaheadS != 120 ||
		cfg.FilterK != 3 || cfg.FilterW != 4 || cfg.ValidationDelayS != 15 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Predict.SamplingIntervalS != 5 {
		t.Error("predictor sampling interval must follow the monitor's")
	}
}

// TestPeriodicRetrainingAdapts verifies the paper's "periodically
// updated" behaviour: a fault class first seen only AFTER the initial
// training becomes predictable once the models retrain, so the third
// occurrence is handled even though the first post-training occurrence
// was unknown at initial training time.
func TestPeriodicRetrainingAdapts(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	ctl, err := New(SchemePREPARE, sub, app, Config{
		TrainAtS:         200, // trained before ANY fault has occurred
		RetrainIntervalS: 200,
		MonitorSeed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := c.VM("vm1")
	for s := int64(1); s <= 1000; s++ {
		switch {
		case s == 300 || s == 700:
			vm.ExternalCPU = 70 // fault occurrences, both after training
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
}

// TestNoRetrainingStaysBlind is the control for the test above: without
// periodic retraining, the initially clean models never learn the fault.
func TestNoRetrainingStaysBlind(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	ctl, err := New(SchemePREPARE, sub, app, Config{
		TrainAtS:    200,
		MonitorSeed: 6,
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
	if len(ctl.Steps()) != 0 {
		t.Errorf("models trained on clean data only should never act, got %d steps", len(ctl.Steps()))
	}
}

// TestUnsupervisedModeFirstOccurrence: in unsupervised mode the
// controller trains on clean data only and still prevents the first
// occurrence of an overload.
func TestUnsupervisedModeFirstOccurrence(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	ctl, err := New(SchemePREPARE, sub, app, Config{
		TrainAtS:    200, // trained before any fault
		Detector:    detector.Spec{Kind: detector.KindKMeans},
		MonitorSeed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := c.VM("vm1")
	for s := int64(1); s <= 600; s++ {
		switch {
		case s == 300:
			vm.ExternalCPU = 70 // first-ever fault
		case s == 450:
			vm.ExternalCPU = 0
		}
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
	}
	if !ctl.Trained() {
		t.Fatal("controller never trained")
	}
	if len(ctl.Steps()) == 0 {
		t.Fatal("unsupervised PREPARE never acted on the first occurrence")
	}
	// The violation window should be shorter than the fault window.
	violated := ctl.SLOLog().ViolationSeconds(300, 450)
	if violated > 100 {
		t.Errorf("unsupervised prevention left %ds of violation in a 150s fault", violated)
	}
}

// TestUnsupervisedReactiveMode exercises the reactive + unsupervised
// combination (detector evaluates current states only).
func TestUnsupervisedReactiveMode(t *testing.T) {
	c, sub, app := newFakeWorld(t, workload.Constant{Value: 60})
	ctl, err := New(SchemeReactive, sub, app, Config{
		TrainAtS:    200,
		Detector:    detector.Spec{Kind: detector.KindKMeans},
		MonitorSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := c.VM("vm1")
	for s := int64(1); s <= 600; s++ {
		switch {
		case s == 300:
			vm.ExternalCPU = 70
		case s == 450:
			vm.ExternalCPU = 0
		}
		app.Tick(simclock.Time(s))
		c.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ctl.Steps()) == 0 {
		t.Fatal("reactive unsupervised mode never acted")
	}
	if ctl.Steps()[0].Time.Seconds() < 300 {
		t.Errorf("reactive acted at %v — before any violation", ctl.Steps()[0].Time)
	}
}

// TestApplyScoresBusiestVM pins the reactive fallback's unified
// detector path: observe classifies every VM through the same
// Detector.Current call every scheme uses, on the VM's current row, and
// the VM decide's fallback picks alerts with that verdict. Its raw vote,
// which its own filter has not confirmed, is reported as suppressed.
func TestApplyScoresBusiestVM(t *testing.T) {
	names := predict.AttributeNames()
	vms := newVMStates([]substrate.VMID{"vm1", "vm2"}, defaultFilter())
	for i := range vms {
		e := detector.NewEWMA(len(names), detector.EWMAOptions{})
		rows := make([][]float64, 40)
		for i := range rows {
			rows[i] = make([]float64, len(names))
			for j := range rows[i] {
				rows[i][j] = 10 + float64(i%5)
			}
		}
		if err := e.Train(rows, nil); err != nil {
			t.Fatal(err)
		}
		vms[i].det = e
	}
	store, err := columnar.New(len(vms), 1)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := infer.NewWorkloadDetector(len(vms), 24, 20)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New(telemetry.Options{})
	c := &Controller{
		cfg:        Config{}.withDefaults(),
		scheme:     SchemeReactive,
		vms:        vms,
		rowScratch: make([]float64, len(names)),
		store:      store,
		workload:   wd,
		tel:        newInstruments(reg),
	}

	// tick publishes one violated tick, vm1's attributes at 10 and vm2's
	// at vm2Fill, observes it and applies the fallback's plan.
	fallback := Plan{Alerts: []int{1}}
	tick := func(now simclock.Time, vm2Fill float64) {
		t.Helper()
		for i := range vms {
			var v metrics.Vector
			for j := range v {
				v[j] = 10
				if i == 1 {
					v[j] = vm2Fill
				}
			}
			store.StageRow(i, &v)
		}
		store.Commit(now, metrics.LabelAbnormal)
		if _, err := c.observe(now, metrics.LabelAbnormal, true); err != nil {
			t.Fatal(err)
		}
		if err := c.apply(now, fallback); err != nil {
			t.Fatal(err)
		}
	}
	tick(100, 10) // near baseline
	if v := c.vms[1].verdict; v.Abnormal {
		t.Fatalf("near-baseline sample classified abnormal: %+v", v)
	}

	// A wildly deviant busiest VM yields an abnormal unified verdict
	// with attribution strengths, and the alert carries its score.
	tick(105, 500)
	if v := c.vms[1].verdict; !v.Abnormal || len(v.Strengths) == 0 {
		t.Fatalf("deviant sample verdict %+v, want abnormal with strengths", v)
	}
	if got := c.AlertsSince(c.AlertCount() - 1)[0]; got.VM != "vm2" || got.Score != c.vms[1].verdict.Score || got.Predicted {
		t.Fatalf("fallback alert %+v, want a reactive vm2 alert scored %v", got, c.vms[1].verdict.Score)
	}
	var raw []string
	for _, e := range reg.Snapshot().Events {
		if e.Stage == telemetry.StagePredict {
			raw = append(raw, fmt.Sprintf("%d %s %s", e.SimTime, e.VM, e.Kind))
		}
	}
	want := []string{"105 vm2 " + telemetry.KindPredictionWindow, "105 vm2 " + telemetry.KindAlertFiltered}
	if !reflect.DeepEqual(raw, want) {
		t.Fatalf("raw-alert events %q, want %q", raw, want)
	}
}
