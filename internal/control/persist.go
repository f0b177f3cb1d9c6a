package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"prepare/internal/detector"
	"prepare/internal/predict"
	"prepare/internal/substrate"
)

// modelsVersion guards the controller model snapshot wire format.
// Version 2 wraps each VM's payload in a {kind, data} envelope so every
// detector kind — TAN, unsupervised, forecast-error, ensembles — round-
// trips.
const modelsVersion = 2

// vmModelSnapshot is one VM's detector snapshot: the detector kind that
// wrote it plus the kind-specific payload.
type vmModelSnapshot struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// modelsSnapshot is the JSON wire format of a controller's trained
// per-VM detectors. Each payload carries the detector's full online
// state, so a restored controller scores subsequent samples exactly as
// the saved one would have.
type modelsSnapshot struct {
	Version int                        `json:"version"`
	VMs     map[string]vmModelSnapshot `json:"vms"`
}

// SaveModels writes the controller's trained per-VM detectors as JSON.
// The snapshot is self-contained: restored into a fresh controller over
// the same VM set (RestoreModels), it reproduces the saved controller's
// subsequent predictions exactly. Every detector kind snapshots,
// including unsupervised detectors and ensembles.
func (c *Controller) SaveModels(w io.Writer) error {
	if !c.trained {
		return errors.New("control: models are not trained")
	}
	snap := modelsSnapshot{
		Version: modelsVersion,
		VMs:     make(map[string]vmModelSnapshot, len(c.vmOrder)),
	}
	for _, id := range c.vmOrder {
		d := c.detectors[id]
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			return fmt.Errorf("control: save models for %s: %w", id, err)
		}
		snap.VMs[string(id)] = vmModelSnapshot{
			Kind: d.Kind(),
			Data: json.RawMessage(bytes.TrimSpace(buf.Bytes())),
		}
	}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("control: encode models: %w", err)
	}
	return nil
}

// RestoreModels loads a SaveModels snapshot into the controller,
// marking it trained. The snapshot must provide a model for every VM
// the controller manages.
func (c *Controller) RestoreModels(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("control: read models: %w", err)
	}
	var snap modelsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("control: decode models: %w", err)
	}
	if snap.Version != modelsVersion {
		return fmt.Errorf("control: unsupported model snapshot version %d", snap.Version)
	}
	models := make(map[substrate.VMID]detector.Detector, len(snap.VMs))
	for id, entry := range snap.VMs {
		vm := substrate.VMID(id)
		d, err := predict.LoadDetector(entry.Kind, bytes.NewReader(entry.Data), c.detectorOptions(vm))
		if err != nil {
			return fmt.Errorf("control: restore models for %s: %w", id, err)
		}
		models[vm] = d
	}
	return c.InstallDetectors(models)
}

// InstallDetectors installs pre-trained detectors — one per managed VM —
// and marks the controller trained, so it starts predicting without an
// online training pass. Fresh alarm filters are created alongside, as
// train does.
func (c *Controller) InstallDetectors(models map[substrate.VMID]detector.Detector) error {
	for _, id := range c.vmOrder {
		if models[id] == nil {
			return fmt.Errorf("control: no model for VM %s", id)
		}
	}
	// Retraining replaces an installed detector rather than refitting
	// it in place: it may carry options this controller did not give it.
	clear(c.built)
	for _, id := range c.vmOrder {
		c.detectors[id] = models[id]
		f, err := predict.NewAlarmFilter(c.cfg.FilterK, c.cfg.FilterW)
		if err != nil {
			return err
		}
		c.filters[id] = f
	}
	c.trained = true
	return nil
}

// InstallModels installs pre-trained supervised predictors, wrapping
// each in the TAN detector adapter. It remains as the typed entry point
// for callers that train predictors out-of-band; the controller must be
// configured for the TAN detector.
func (c *Controller) InstallModels(models map[substrate.VMID]*predict.Predictor) error {
	if c.cfg.Detector.Kind != detector.KindTAN {
		return fmt.Errorf("control: cannot install supervised predictors into a %s controller", c.cfg.Detector)
	}
	wrapped := make(map[substrate.VMID]detector.Detector, len(models))
	for id, p := range models {
		if p == nil {
			continue
		}
		wrapped[id] = predict.InstalledTAN(p, c.detectorOptions(id))
	}
	return c.InstallDetectors(wrapped)
}

// engineSnapshot is the JSON wire format of every tenant's models.
type engineSnapshot struct {
	Version int                        `json:"version"`
	Tenants map[string]json.RawMessage `json:"tenants"`
}

// SaveModels writes every tenant's trained models as one JSON snapshot.
func (e *Engine) SaveModels(w io.Writer) error {
	snap := engineSnapshot{
		Version: modelsVersion,
		Tenants: make(map[string]json.RawMessage, len(e.tenants)),
	}
	for _, t := range e.tenants {
		var buf bytes.Buffer
		if err := t.Controller.SaveModels(&buf); err != nil {
			return fmt.Errorf("control: tenant %s: %w", t.ID, err)
		}
		snap.Tenants[t.ID] = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("control: encode engine models: %w", err)
	}
	return nil
}

// RestoreModels loads an engine snapshot, restoring every tenant's
// models. The snapshot must cover every tenant in the engine.
func (e *Engine) RestoreModels(r io.Reader) error {
	var snap engineSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("control: decode engine models: %w", err)
	}
	if snap.Version != modelsVersion {
		return fmt.Errorf("control: unsupported engine snapshot version %d", snap.Version)
	}
	for _, t := range e.tenants {
		raw, ok := snap.Tenants[t.ID]
		if !ok {
			return fmt.Errorf("control: snapshot has no models for tenant %s", t.ID)
		}
		if err := t.Controller.RestoreModels(bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("control: tenant %s: %w", t.ID, err)
		}
	}
	return nil
}
