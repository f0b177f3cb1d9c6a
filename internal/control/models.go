package control

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/pool"
	"prepare/internal/predict"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// train fits one predictor (and alarm filter) per VM from the collected
// labeled series. Following the paper, fault localization decides which
// VMs' samples are actually trained as "abnormal": a sample keeps its
// abnormal label only if the VM itself deviates from its own fault-free
// baseline at that instant (at least two attributes beyond 3.5 sigma).
// Without this gating, every VM's model would learn the application-level
// violation windows — including VMs whose metrics carry no fault signal —
// and then raise persistent false alarms on recurring workload patterns.
func (c *Controller) train(now simclock.Time) error {
	if err := c.fitEach(now, false); err != nil {
		return err
	}
	c.trained = true
	c.nextRetrainAt = now.Add(c.cfg.RetrainIntervalS)
	return nil
}

// fitEach fits every VM's detector, then gives every VM a fresh alarm
// filter. Per-VM fits are independent and deterministically seeded, so
// they fan out across the worker pool; each goroutine writes only its
// own VM's state. With fromCounts set, every detector retrains from the
// counts Update has folded into it instead of refitting from the series.
func (c *Controller) fitEach(now simclock.Time, fromCounts bool) error {
	runner := pool.Runner{Workers: c.cfg.TrainWorkers}
	c.growFitBufs(runner.Size(len(c.vms)))
	err := runner.ForEachWorker(context.Background(), len(c.vms), func(_ context.Context, w, i int) error {
		if fromCounts {
			if err := c.vms[i].det.Retrain(); err != nil {
				return fmt.Errorf("retrain %s: %w", c.vms[i].id, err)
			}
			return nil
		}
		return c.fitVM(now, i, &c.fitBufs[w])
	})
	if err != nil {
		return err
	}
	if err := c.freshFilters(); err != nil {
		return err
	}
	c.tel.trainings.Inc()
	return nil
}

// freshFilters gives every VM a new, empty alarm filter.
func (c *Controller) freshFilters() error {
	for i := range c.vms {
		f, err := predict.NewAlarmFilter(c.cfg.FilterK, c.cfg.FilterW)
		if err != nil {
			return err
		}
		c.vms[i].filter = f
	}
	return nil
}

// detectorOptions assembles the per-VM adapter options from the
// controller's configuration. The fleet is nil unless the spec has a
// tan detector or ensemble member.
func (c *Controller) detectorOptions(id substrate.VMID) predict.DetectorOptions {
	return predict.DetectorOptions{
		Names:           c.attrNames,
		Config:          c.cfg.Predict,
		Margin:          c.cfg.AlertScoreMargin,
		LookbackSamples: int(c.cfg.LookaheadS / c.cfg.SamplingIntervalS),
		Seed:            c.cfg.MonitorSeed,
		Fleet:           c.fleet,
		Instruments:     c.tel.predict,
		Telemetry:       c.cfg.Telemetry,
		TelemetryScope:  string(id),
	}
}

// fitBuf is one training worker's rows and labels (see Series.RowsInto).
type fitBuf struct {
	backing []float64
	rows    [][]float64
	labels  []metrics.Label
}

// growFitBufs makes sure every one of n training workers has a buffer.
func (c *Controller) growFitBufs(n int) {
	if len(c.fitBufs) < n {
		c.fitBufs = append(c.fitBufs, make([]fitBuf, n-len(c.fitBufs))...)
	}
}

// fitVM fits the i-th VM's detector from its retained series, read
// straight from the ring into buf, and installs it as fit at now. The
// detector adapter applies the kind-appropriate training protocol:
// anomaly-onset relabeling plus a TAN fit that keeps its counts, or an
// unlabeled outlier/forecast fit. A detector is built
// only when the VM has none of its own (first training, or after
// installDetectors); otherwise the one it built is refit in place. Train
// replaces all model state and keeps neither rows nor labels, so buf is
// free for the worker's next VM.
func (c *Controller) fitVM(now simclock.Time, i int, buf *fitBuf) error {
	v := &c.vms[i]
	series, err := c.sampler.Series(v.id)
	if err != nil {
		return err
	}
	buf.backing, buf.rows, buf.labels = series.RowsInto(buf.backing, buf.rows, buf.labels)
	if v.built == nil {
		if v.built, err = predict.NewDetector(c.cfg.Detector, c.detectorOptions(v.id)); err != nil {
			return err
		}
	}
	if err := v.built.Train(buf.rows, buf.labels); err != nil {
		return fmt.Errorf("train %s: %w", v.id, err)
	}
	v.det, v.fitAt = v.built, now
	return nil
}

// incrementalTraining is the one place that decides whether this
// configuration folds each sample into the per-VM counts (Update) and
// retrains from them (Retrain). Only the pure supervised TAN detector
// has a count-table form, and only periodic retraining ever consumes
// the counts; everything else (unsupervised, forecast-error, ensembles,
// train-once) observes each sample and refits from the retained series.
func (c *Controller) incrementalTraining() bool {
	return c.cfg.Detector.Kind == detector.KindTAN && c.cfg.RetrainIntervalS > 0
}

// retrain performs one periodic model update. Under incremental
// training every tan detector rebuilds its classifier from its
// accumulated count table (O(attrs²·bins²), independent of history
// length); every other configuration refits from the retained series
// (O(history)). Alarm filters restart fresh either way.
func (c *Controller) retrain(now simclock.Time) error {
	incremental := c.incrementalTraining()
	latency := c.tel.retrainBatch
	if incremental {
		latency = c.tel.retrainIncremental
	}
	defer latency.ObserveSince(time.Now())
	return c.fitEach(now, incremental)
}

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
		VMs:     make(map[string]vmModelSnapshot, len(c.vms)),
	}
	for _, v := range c.vms {
		var buf bytes.Buffer
		if err := v.det.Save(&buf); err != nil {
			return fmt.Errorf("control: save models for %s: %w", v.id, err)
		}
		snap.VMs[string(v.id)] = vmModelSnapshot{
			Kind: v.det.Kind(),
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
// the controller manages, and for no other.
func (c *Controller) RestoreModels(r io.Reader) error {
	models, err := c.decodeModels(r)
	if err != nil {
		return err
	}
	return c.installDetectors(models)
}

// decodeModels decodes a SaveModels snapshot into one detector per
// managed VM, in vmOrder, ready for installDetectors, without touching
// the controller. Its VM set is checked before any model is decoded.
func (c *Controller) decodeModels(r io.Reader) ([]detector.Detector, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("control: read models: %w", err)
	}
	var snap modelsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("control: decode models: %w", err)
	}
	if snap.Version != modelsVersion {
		return nil, fmt.Errorf("control: unsupported model snapshot version %d", snap.Version)
	}
	for _, v := range c.vms {
		if _, ok := snap.VMs[string(v.id)]; !ok {
			return nil, fmt.Errorf("control: no model for VM %s", v.id)
		}
	}
	if extra := len(snap.VMs) - len(c.vms); extra > 0 {
		return nil, fmt.Errorf("control: snapshot has models for %d VMs this controller does not manage", extra)
	}
	models := make([]detector.Detector, len(c.vms))
	for i, v := range c.vms {
		entry := snap.VMs[string(v.id)]
		if entry.Kind != c.cfg.Detector.Kind {
			// A retraining tan controller would otherwise be handed a
			// model that cannot Retrain.
			return nil, fmt.Errorf("control: model for %s is %q, this controller runs %q", v.id, entry.Kind, c.cfg.Detector.Kind)
		}
		if models[i], err = predict.LoadDetector(entry.Kind, bytes.NewReader(entry.Data), c.detectorOptions(v.id)); err != nil {
			return nil, fmt.Errorf("control: restore models for %s: %w", v.id, err)
		}
	}
	return models, nil
}

// installDetectors installs pre-trained detectors — one per managed VM,
// in vmOrder — and marks the controller trained, so it starts
// predicting without an online training pass. Fresh alarm filters are
// created alongside, as train does, and the next periodic retrain is
// left for the next sampling tick to schedule.
func (c *Controller) installDetectors(models []detector.Detector) error {
	if err := c.freshFilters(); err != nil {
		return err
	}
	for i := range c.vms {
		// Retraining replaces an installed detector rather than refitting
		// it in place: it may carry options this controller did not give
		// it.
		c.vms[i].det, c.vms[i].built = models[i], nil
	}
	c.trained = true
	c.nextRetrainAt = 0
	return nil
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
// models. The snapshot must cover every tenant in the engine. Every
// tenant's models are decoded and checked before any is installed, so a
// snapshot that fails leaves every tenant as it was.
func (e *Engine) RestoreModels(r io.Reader) error {
	var snap engineSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("control: decode engine models: %w", err)
	}
	if snap.Version != modelsVersion {
		return fmt.Errorf("control: unsupported engine snapshot version %d", snap.Version)
	}
	decoded := make([][]detector.Detector, len(e.tenants))
	for i, t := range e.tenants {
		raw, ok := snap.Tenants[t.ID]
		if !ok {
			return fmt.Errorf("control: snapshot has no models for tenant %s", t.ID)
		}
		models, err := t.Controller.decodeModels(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("control: tenant %s: %w", t.ID, err)
		}
		decoded[i] = models
	}
	for i, t := range e.tenants {
		if err := t.Controller.installDetectors(decoded[i]); err != nil {
			return fmt.Errorf("control: tenant %s: %w", t.ID, err)
		}
	}
	return nil
}
