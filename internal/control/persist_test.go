package control

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/predict"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// persistController builds a bare controller with just enough state for
// the model persistence paths: config and one empty vmState per VM for
// installDetectors to fill.
func persistController(spec detector.Spec, vms ...substrate.VMID) *Controller {
	cfg := Config{SamplingIntervalS: 5, Detector: spec}.withDefaults()
	return &Controller{
		cfg:       cfg,
		vms:       newVMStates(vms),
		attrNames: predict.AttributeNames(),
	}
}

// installed counts the VMs holding a detector and the VMs holding an
// alarm filter.
func installed(c *Controller) (dets, filters int) {
	for _, v := range c.vms {
		if v.det != nil {
			dets++
		}
		if v.filter != nil {
			filters++
		}
	}
	return dets, filters
}

func trainingRows(dims, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dims)
		for j := range rows[i] {
			rows[i][j] = 20 + float64((i+2*j)%5)
		}
	}
	return rows
}

// TestSaveModelsV2RoundTripsNonTANKinds checks the version-2 envelope:
// a controller running a forecast-error detector snapshots and restores
// with the detector kind intact, the restored detectors score the same
// stream identically, and re-saving reproduces the snapshot
// byte-for-byte.
func TestSaveModelsV2RoundTripsNonTANKinds(t *testing.T) {
	vms := []substrate.VMID{"vm-a", "vm-b"}
	spec := detector.Spec{Kind: detector.KindEWMA}
	dims := len(predict.AttributeNames())

	c1 := persistController(spec, vms...)
	models := make([]detector.Detector, len(vms))
	for i := range vms {
		d := detector.NewEWMA(dims, detector.EWMAOptions{SamplingIntervalS: 5})
		if err := d.Train(trainingRows(dims, 50), nil); err != nil {
			t.Fatal(err)
		}
		models[i] = d
	}
	if err := c1.installDetectors(models); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := c1.SaveModels(&snap); err != nil {
		t.Fatal(err)
	}
	var wire modelsSnapshot
	if err := json.Unmarshal(snap.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Version != modelsVersion {
		t.Fatalf("snapshot version %d, want %d", wire.Version, modelsVersion)
	}
	for id, entry := range wire.VMs {
		if entry.Kind != detector.KindEWMA {
			t.Fatalf("VM %s snapshotted as %q, want ewma", id, entry.Kind)
		}
	}

	c2 := persistController(spec, vms...)
	if err := c2.RestoreModels(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !c2.trained {
		t.Fatal("restored controller not marked trained")
	}

	// Determinism: re-saving the freshly restored controller reproduces
	// the exact bytes (JSON object keys are sorted, payloads are state).
	var again bytes.Buffer
	if err := c2.SaveModels(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatal("re-saved snapshot differs from the original bytes")
	}

	// The restored detectors must resume the score stream exactly.
	row := make([]float64, dims)
	for i := 0; i < 25; i++ {
		for j := range row {
			row[j] = 20 + float64((i+j)%5)
		}
		if i > 10 {
			row[3] = 20 + float64(i-10)*6 // drift one attribute
		}
		for k, id := range vms {
			a, b := c1.vms[k].det, c2.vms[k].det
			if err := a.Observe(row); err != nil {
				t.Fatal(err)
			}
			if err := b.Observe(row); err != nil {
				t.Fatal(err)
			}
			da, err := a.Score(c1.cfg.LookaheadS)
			if err != nil {
				t.Fatal(err)
			}
			db, err := b.Score(c2.cfg.LookaheadS)
			if err != nil {
				t.Fatal(err)
			}
			if da != db {
				t.Fatalf("step %d VM %s: saved %+v vs restored %+v", i, id, da, db)
			}
		}
	}
}

// TestRestoreModelsRejectsV1: no writer has produced the version-1
// format (bare supervised predictor payloads keyed by VM) since the
// {kind, data} envelope replaced it. Such a document must fail by its
// version and leave the controller untrained; the same payload in a
// version-2 envelope restores.
func TestRestoreModelsRejectsV1(t *testing.T) {
	dims := len(predict.AttributeNames())
	p, err := predict.New(predict.Config{}, predict.AttributeNames())
	if err != nil {
		t.Fatal(err)
	}
	rows := trainingRows(dims, 60)
	labels := make([]metrics.Label, len(rows))
	for i := range labels {
		labels[i] = metrics.LabelNormal
		if i%7 == 0 {
			labels[i] = metrics.LabelAbnormal
		}
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := p.Save(&payload); err != nil {
		t.Fatal(err)
	}

	v1, err := json.Marshal(map[string]any{
		"version": 1,
		"vms":     map[string]json.RawMessage{"vm-a": payload.Bytes()},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := persistController(detector.Spec{}, "vm-a")
	err = c.RestoreModels(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "unsupported model snapshot version 1") {
		t.Fatalf("version-1 restore: %v, want unsupported model snapshot version 1", err)
	}
	if dets, _ := installed(c); c.trained || dets != 0 {
		t.Fatal("rejected version-1 snapshot left the controller trained")
	}

	v2, err := json.Marshal(modelsSnapshot{
		Version: modelsVersion,
		VMs:     map[string]vmModelSnapshot{"vm-a": {Kind: detector.KindTAN, Data: payload.Bytes()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreModels(bytes.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
	if !c.trained || c.vms[0].det.Kind() != detector.KindTAN {
		t.Fatal("version-2 envelope did not install the TAN detector")
	}

	// A snapshot missing a managed VM must be rejected whole.
	c2 := persistController(detector.Spec{}, "vm-a", "vm-b")
	err = c2.RestoreModels(bytes.NewReader(v2))
	if err == nil || !strings.Contains(err.Error(), "vm-b") {
		t.Fatalf("restore with missing VM: %v, want no-model error for vm-b", err)
	}

	// Unknown future versions fail loudly instead of misparsing.
	if err := c.RestoreModels(strings.NewReader(`{"version":99,"vms":{}}`)); err == nil {
		t.Fatal("version 99 snapshot accepted")
	}
}

// TestEngineRestoreIsAllOrNothing: a two-tenant snapshot whose second
// tenant fails to decode must install nothing — the first tenant's
// controller stays untrained with its detectors untouched.
func TestEngineRestoreIsAllOrNothing(t *testing.T) {
	spec := detector.Spec{Kind: detector.KindEWMA}
	dims := len(predict.AttributeNames())
	trained := persistController(spec, "vm-a")
	d := detector.NewEWMA(dims, detector.EWMAOptions{SamplingIntervalS: 5})
	if err := d.Train(trainingRows(dims, 50), nil); err != nil {
		t.Fatal(err)
	}
	if err := trained.installDetectors([]detector.Detector{d}); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := trained.SaveModels(&good); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(engineSnapshot{Version: modelsVersion, Tenants: map[string]json.RawMessage{
		"a": bytes.TrimSpace(good.Bytes()),
		"b": json.RawMessage(`{"version":2,"vms":{"vm-b":{"kind":"ewma","data":{"corrupt":true}}}}`),
	}})
	if err != nil {
		t.Fatal(err)
	}

	first, second := persistController(spec, "vm-a"), persistController(spec, "vm-b")
	e, err := NewEngine([]Tenant{{ID: "a", Controller: first}, {ID: "b", Controller: second}}, EngineOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = e.RestoreModels(bytes.NewReader(snap))
	if err == nil || !strings.Contains(err.Error(), "tenant b") {
		t.Fatalf("restore with a corrupt second tenant: %v, want an error naming tenant b", err)
	}
	for id, c := range map[string]*Controller{"a": first, "b": second} {
		if dets, filters := installed(c); c.trained || dets != 0 || filters != 0 {
			t.Errorf("tenant %s: failed restore left trained=%v with %d detectors, %d filters",
				id, c.trained, dets, filters)
		}
	}
}

// TestRetrainReplacesInstalledDetectors: a periodic retrain refits the
// detectors the controller built in place, but replaces installed ones,
// which may carry options the controller did not give them.
func TestRetrainReplacesInstalledDetectors(t *testing.T) {
	ctl, _ := runSynth(t, 2, 400, 0, Config{Detector: detector.Spec{Kind: detector.KindEWMA}, RetrainIntervalS: 100})
	own := ctl.vms[0].det
	if err := ctl.retrain(400); err != nil {
		t.Fatal(err)
	}
	if ctl.vms[0].det != own {
		t.Fatal("retrain replaced a detector the controller built instead of refitting it")
	}

	models := ewmaModels(t, len(ctl.vms))
	if err := ctl.installDetectors(models); err != nil {
		t.Fatal(err)
	}
	if err := ctl.retrain(500); err != nil {
		t.Fatal(err)
	}
	if got := ctl.vms[0].det; got == models[0] || got == own {
		t.Fatal("retrain after installDetectors did not build a fresh detector")
	}
}

// ewmaModels trains n stand-alone EWMA detectors with an unreachable
// threshold, as installable models.
func ewmaModels(t *testing.T, n int) []detector.Detector {
	t.Helper()
	dims := len(predict.AttributeNames())
	models := make([]detector.Detector, n)
	for i := range models {
		d := detector.NewEWMA(dims, detector.EWMAOptions{SamplingIntervalS: 5, Threshold: 99})
		if err := d.Train(trainingRows(dims, 50), nil); err != nil {
			t.Fatal(err)
		}
		models[i] = d
	}
	return models
}

// TestRestoredModelsSurviveFirstTick: with periodic retraining on, the
// first sampling tick after RestoreModels schedules the next retrain one
// interval out instead of running it — a retrain then would replace the
// restored models with fits of a series holding one sample.
func TestRestoredModelsSurviveFirstTick(t *testing.T) {
	const retrainS = 100
	cfg := Config{Detector: detector.Spec{Kind: detector.KindEWMA}, RetrainIntervalS: retrainS}
	saved, _ := runSynth(t, 2, 400, 0, cfg)
	var snap bytes.Buffer
	if err := saved.SaveModels(&snap); err != nil {
		t.Fatal(err)
	}

	w := newSynthWorld(2)
	ctl, err := New(SchemePREPARE, w, w, cfg) // TrainAtS 0: never trains online
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.RestoreModels(&snap); err != nil {
		t.Fatal(err)
	}
	restored := ctl.vms[0].det
	tick := func(from, to int64) {
		for s := from; s <= to; s++ {
			w.Tick(simclock.Time(s))
			if err := ctl.OnTick(simclock.Time(s)); err != nil {
				t.Fatalf("tick %d: %v", s, err)
			}
		}
	}
	tick(1, 5+retrainS-1)
	if ctl.vms[0].det != restored {
		t.Fatal("the first ticks after RestoreModels replaced the restored detector")
	}
	tick(5+retrainS, 5+retrainS)
	if ctl.vms[0].det == restored {
		t.Fatal("no retrain one interval after the first post-restore sampling tick")
	}
}

// TestRestoreModelsRejectsUnknownVMs: a snapshot that carries a model
// for a VM the controller does not manage is refused whole, even when
// every entry would decode.
func TestRestoreModelsRejectsUnknownVMs(t *testing.T) {
	spec := detector.Spec{Kind: detector.KindEWMA}
	src := persistController(spec, "vm-a", "vm-b", "vm-c")
	if err := src.installDetectors(ewmaModels(t, 3)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.SaveModels(&snap); err != nil {
		t.Fatal(err)
	}
	c := persistController(spec, "vm-a", "vm-b")
	err := c.RestoreModels(bytes.NewReader(snap.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "does not manage") {
		t.Fatalf("restore with an unmanaged VM: %v, want a does-not-manage error", err)
	}
	if dets, filters := installed(c); c.trained || dets != 0 || filters != 0 {
		t.Fatalf("rejected snapshot left trained=%v with %d detectors, %d filters", c.trained, dets, filters)
	}
}
