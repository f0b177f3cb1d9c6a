package control

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/predict"
	"prepare/internal/substrate"
)

// persistController builds a bare controller with just enough state for
// the model persistence paths: config, VM order, and empty detector and
// filter maps for InstallDetectors to fill.
func persistController(spec detector.Spec, vms ...substrate.VMID) *Controller {
	cfg := Config{SamplingIntervalS: 5, Detector: spec}.withDefaults()
	return &Controller{
		cfg:       cfg,
		vmOrder:   vms,
		detectors: make(map[substrate.VMID]detector.Detector, len(vms)),
		filters:   make(map[substrate.VMID]*predict.AlarmFilter, len(vms)),
		attrNames: predict.AttributeNames(),
	}
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
	models := make(map[substrate.VMID]detector.Detector, len(vms))
	for _, id := range vms {
		d := detector.NewEWMA(dims, detector.EWMAOptions{SamplingIntervalS: 5})
		if err := d.Train(trainingRows(dims, 50), nil); err != nil {
			t.Fatal(err)
		}
		models[id] = d
	}
	if err := c1.InstallDetectors(models); err != nil {
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
		for _, id := range vms {
			a, b := c1.detectors[id], c2.detectors[id]
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
	if c.trained || len(c.detectors) != 0 {
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
	if !c.trained || c.detectors["vm-a"].Kind() != detector.KindTAN {
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

// TestRetrainReplacesInstalledDetectors: a periodic retrain refits the
// detectors the controller built in place, but replaces installed ones,
// which may carry options the controller did not give them.
func TestRetrainReplacesInstalledDetectors(t *testing.T) {
	ctl, _ := runSynth(t, 2, 400, 0, Config{Detector: detector.Spec{Kind: detector.KindEWMA}, RetrainIntervalS: 100})
	id := ctl.vmOrder[0]
	own := ctl.detectors[id]
	if err := ctl.retrain(400); err != nil {
		t.Fatal(err)
	}
	if ctl.detectors[id] != own {
		t.Fatal("retrain replaced a detector the controller built instead of refitting it")
	}

	dims := len(predict.AttributeNames())
	models := make(map[substrate.VMID]detector.Detector, len(ctl.vmOrder))
	for _, vm := range ctl.vmOrder {
		d := detector.NewEWMA(dims, detector.EWMAOptions{SamplingIntervalS: 5, Threshold: 99})
		if err := d.Train(trainingRows(dims, 50), nil); err != nil {
			t.Fatal(err)
		}
		models[vm] = d
	}
	if err := ctl.InstallDetectors(models); err != nil {
		t.Fatal(err)
	}
	if err := ctl.retrain(500); err != nil {
		t.Fatal(err)
	}
	if got := ctl.detectors[id]; got == models[id] || got == own {
		t.Fatal("retrain after InstallDetectors did not build a fresh detector")
	}
}
