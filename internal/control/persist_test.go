package control

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"prepare/internal/binenc"
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
		vms:       newVMStates(vms, defaultFilter()),
		attrNames: predict.AttributeNames(),
	}
}

// installed counts the VMs holding a detector.
func installed(c *Controller) (dets int) {
	for _, v := range c.vms {
		if v.det != nil {
			dets++
		}
	}
	return dets
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

// vmEntry is one VM's entry in a controller body.
type vmEntry struct {
	id, kind string
	payload  []byte
}

// docEntries parses a SaveModels document into its per-VM entries.
func docEntries(t *testing.T, doc []byte) []vmEntry {
	t.Helper()
	d := binenc.NewDecoder(doc)
	d.Header(modelsMagic, modelsVersion)
	entries := make([]vmEntry, d.Len(6))
	for i := range entries {
		entries[i] = vmEntry{id: d.String(), kind: d.String(), payload: d.Section()}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// appendBody appends a controller body holding entries.
func appendBody(e *binenc.Encoder, entries []vmEntry) {
	e.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.String(en.id)
		e.String(en.kind)
		payload := en.payload
		e.Section(func(b []byte) ([]byte, error) { return append(b, payload...), nil })
	}
}

// modelsDoc is a SaveModels document holding entries.
func modelsDoc(t *testing.T, entries ...vmEntry) []byte {
	t.Helper()
	e := binenc.NewEncoder(nil)
	e.Header(modelsMagic, modelsVersion)
	appendBody(&e, entries)
	b, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSaveModelsV2RoundTripsNonTANKinds checks the per-VM {kind,
// payload} entry: a controller running a forecast-error detector
// snapshots and restores with the detector kind intact, the restored
// detectors score the same stream identically, and re-saving
// reproduces the snapshot byte-for-byte.
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
	c1.installDetectors(models)

	var snap bytes.Buffer
	if err := c1.SaveModels(&snap); err != nil {
		t.Fatal(err)
	}
	entries := docEntries(t, snap.Bytes())
	if len(entries) != len(vms) {
		t.Fatalf("snapshot has %d entries, want %d", len(entries), len(vms))
	}
	for i, entry := range entries {
		if entry.id != string(vms[i]) || entry.kind != detector.KindEWMA {
			t.Fatalf("entry %d is VM %s of kind %q, want %s of kind ewma", i, entry.id, entry.kind, vms[i])
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
	// the exact bytes (entries in vmOrder, payloads are state).
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

// TestRestoreModelsRejectsV1: no writer has produced the JSON model
// documents — version 1 (bare supervised predictor payloads keyed by
// VM) or version 2 (the {kind, data} envelope WriteModelsJSON still
// renders) — since the binary document replaced them. Each must fail as
// JSON and leave the controller untrained; the same payload's binary
// form in a binary document restores.
func TestRestoreModelsRejectsV1(t *testing.T) {
	dims := len(predict.AttributeNames())
	tan, err := predict.NewDetector(detector.Spec{Kind: detector.KindTAN}, predict.DetectorOptions{Names: predict.AttributeNames()})
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
	if err := tan.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := tan.Save(&payload); err != nil {
		t.Fatal(err)
	}
	binPayload, err := tan.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	for version, doc := range map[int]any{
		1: map[string]any{"version": 1, "vms": map[string]json.RawMessage{"vm-a": payload.Bytes()}},
		2: map[string]any{"version": 2, "vms": map[string]any{"vm-a": map[string]any{"kind": detector.KindTAN, "data": json.RawMessage(payload.Bytes())}}},
	} {
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		c := persistController(detector.Spec{}, "vm-a")
		if err := c.RestoreModels(bytes.NewReader(raw)); !errors.Is(err, binenc.ErrJSON) {
			t.Fatalf("JSON version-%d restore: %v, want binenc.ErrJSON", version, err)
		}
		if dets := installed(c); c.trained || dets != 0 {
			t.Fatalf("rejected JSON version-%d snapshot left the controller trained", version)
		}
	}

	c := persistController(detector.Spec{}, "vm-a")
	doc := modelsDoc(t, vmEntry{id: "vm-a", kind: detector.KindTAN, payload: binPayload})
	if err := c.RestoreModels(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if !c.trained || c.vms[0].det.Kind() != detector.KindTAN {
		t.Fatal("binary document did not install the TAN detector")
	}

	// A snapshot missing a managed VM must be rejected whole.
	c2 := persistController(detector.Spec{}, "vm-a", "vm-b")
	err = c2.RestoreModels(bytes.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "vm-b") {
		t.Fatalf("restore with missing VM: %v, want no-model error for vm-b", err)
	}

	// Unknown future versions fail loudly instead of misparsing.
	future := append([]byte(nil), doc...)
	future[len(modelsMagic)] = 99
	if err := c2.RestoreModels(bytes.NewReader(future)); !errors.Is(err, binenc.ErrVersion) {
		t.Fatalf("version 99 snapshot: %v, want binenc.ErrVersion", err)
	}
	if dets := installed(c2); c2.trained || dets != 0 {
		t.Fatal("rejected snapshots left the controller trained")
	}
}

// TestRestoreModelsRejectsBadEntries: a document naming one VM twice,
// or carrying a model of another detector kind, is refused whole.
func TestRestoreModelsRejectsBadEntries(t *testing.T) {
	spec := detector.Spec{Kind: detector.KindEWMA}
	src := persistController(spec, "vm-a", "vm-b")
	src.installDetectors(ewmaModels(t, 2))
	var snap bytes.Buffer
	if err := src.SaveModels(&snap); err != nil {
		t.Fatal(err)
	}
	entries := docEntries(t, snap.Bytes())
	dup := entries[0]
	twice := append(append([]vmEntry(nil), entries...), dup)
	for name, tc := range map[string]struct {
		doc  []byte
		spec detector.Spec
		want string
	}{
		"duplicate VM":  {modelsDoc(t, twice...), spec, "two models for VM vm-a"},
		"kind mismatch": {snap.Bytes(), detector.Spec{Kind: detector.KindZRobust}, `is "ewma", this controller runs "zrobust"`},
	} {
		c := persistController(tc.spec, "vm-a", "vm-b")
		err := c.RestoreModels(bytes.NewReader(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", name, err, tc.want)
		}
		if dets := installed(c); c.trained || dets != 0 {
			t.Errorf("%s: rejected snapshot left trained=%v with %d detectors", name, c.trained, dets)
		}
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
	trained.installDetectors([]detector.Detector{d})
	var good bytes.Buffer
	if err := trained.SaveModels(&good); err != nil {
		t.Fatal(err)
	}
	enc := binenc.NewEncoder(nil)
	enc.Header(engineMagic, modelsVersion)
	enc.Uvarint(2)
	enc.String("a")
	mark := enc.Begin()
	appendBody(&enc, docEntries(t, good.Bytes()))
	enc.End(mark)
	enc.String("b")
	mark = enc.Begin()
	appendBody(&enc, []vmEntry{{id: "vm-b", kind: detector.KindEWMA, payload: []byte("corrupt")}})
	enc.End(mark)
	snap, err := enc.Finish()
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
		if dets := installed(c); c.trained || dets != 0 {
			t.Errorf("tenant %s: failed restore left trained=%v with %d detectors",
				id, c.trained, dets)
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
	ctl.installDetectors(models)
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
	src.installDetectors(ewmaModels(t, 3))
	var snap bytes.Buffer
	if err := src.SaveModels(&snap); err != nil {
		t.Fatal(err)
	}
	c := persistController(spec, "vm-a", "vm-b")
	err := c.RestoreModels(bytes.NewReader(snap.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "does not manage") {
		t.Fatalf("restore with an unmanaged VM: %v, want a does-not-manage error", err)
	}
	if dets := installed(c); c.trained || dets != 0 {
		t.Fatalf("rejected snapshot left trained=%v with %d detectors", c.trained, dets)
	}
}

// TestInstalledEWMAJoinsTheFleetTick: restored ewma detectors that
// share one option set are joined into one fleet, which observe ticks
// in one pass, and under PREPARE and the reactive scheme the alert
// stream is the one the per-VM loop gives the same detectors. An
// installed set whose options differ stays on the per-VM loop.
func TestInstalledEWMAJoinsTheFleetTick(t *testing.T) {
	const nVMs = 7
	cfg := Config{Detector: detector.Spec{Kind: detector.KindEWMA}}
	saved, _ := runSynth(t, nVMs, 400, 0, cfg)
	var snap bytes.Buffer
	if err := saved.SaveModels(&snap); err != nil {
		t.Fatal(err)
	}
	run := func(scheme Scheme, join bool) (int, string) {
		w := newSynthWorld(nVMs)
		ctl, err := New(scheme, w, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.RestoreModels(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		if ctl.ewma == nil {
			t.Fatal("restored ewma detectors with one option set were not joined into a fleet")
		}
		if !join {
			ctl.ewma = nil
		}
		for s := int64(1); s <= 900; s++ {
			w.Tick(simclock.Time(s))
			if err := ctl.OnTick(simclock.Time(s)); err != nil {
				t.Fatalf("tick %d: %v", s, err)
			}
		}
		h := sha256.New()
		for _, a := range ctl.Alerts() {
			hashAlert(h, "", a)
		}
		return ctl.AlertCount(), hexSum(h)
	}
	for _, scheme := range []Scheme{SchemePREPARE, SchemeReactive} {
		n, fleet := run(scheme, true)
		m, perVM := run(scheme, false)
		if n == 0 || fleet != perVM {
			t.Errorf("%s: the fleet tick raised %d alerts, the per-VM loop %d, or they differ", scheme, n, m)
		}
	}

	ctl, _ := runSynth(t, 2, 400, 0, cfg)
	models := ewmaModels(t, len(ctl.vms))
	models[1] = detector.NewEWMA(len(predict.AttributeNames()), detector.EWMAOptions{SamplingIntervalS: 5, Threshold: 50})
	if err := models[1].Train(trainingRows(len(predict.AttributeNames()), 50), nil); err != nil {
		t.Fatal(err)
	}
	ctl.installDetectors(models)
	if ctl.ewma != nil {
		t.Error("installed ewma detectors with two option sets were joined into a fleet")
	}
}
