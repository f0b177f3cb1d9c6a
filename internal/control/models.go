package control

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"prepare/internal/binenc"
	"prepare/internal/columnar"
	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/pool"
	"prepare/internal/predict"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// train fits one predictor per VM from the collected labeled history.
// Following the paper, fault localization decides which VMs' samples
// are actually trained as "abnormal": a sample keeps its abnormal label
// only if the VM itself deviates from its own fault-free baseline at
// that instant (at least two attributes beyond 3.5 sigma).
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

// fitEach fits every VM's detector, then empties every VM's alarm
// filter window. Per-VM fits are independent and deterministically
// seeded, so they fan out across the worker pool; each goroutine writes
// only its own VMs' state. An ewma fleet refits from one pass over the
// store's window (fitFleet); every other kind fits VM by VM (fitVM).
// With fromCounts set, every detector retrains from the counts Update
// has folded into it instead of refitting from the history.
func (c *Controller) fitEach(now simclock.Time, fromCounts bool) error {
	var err error
	if !fromCounts && c.cfg.Detector.Kind == detector.KindEWMA {
		err = c.fitFleet(now)
	} else {
		runner := pool.Runner{Workers: c.cfg.TrainWorkers}
		c.growFitBufs(runner.Size(len(c.vms)))
		err = runner.ForEachWorker(context.Background(), len(c.vms), func(_ context.Context, w, i int) error {
			if fromCounts {
				if err := c.vms[i].det.Retrain(); err != nil {
					return fmt.Errorf("retrain %s: %w", c.vms[i].id, err)
				}
				return nil
			}
			return c.fitVM(now, i, &c.fitBufs[w])
		})
	}
	if err != nil {
		return err
	}
	for i := range c.vms {
		c.vms[i].filter.Reset()
	}
	c.tel.trainings.Inc()
	return nil
}

// fitFleet refits every VM's ewma detector from the store's window in
// its own layout (DESIGN.md, "The refit in the store's layout"), each
// exactly as fitVM would fit it. A VM without a detector of its own
// gets one first, as in fitVM; the detectors are joined into the lanes
// of one fleet, by store index, once, and each refit fits straight into
// the fleet's lines. The training workers take contiguous ranges of
// FleetBlock-VM blocks in store order; a single worker runs in place,
// so a warm refit allocates nothing. A VM without a recorded row fails
// the refit with fitVM's error.
func (c *Controller) fitFleet(now simclock.Time) error {
	if len(c.lanes) != len(c.vms) {
		c.lanes = make([]*detector.EWMA, len(c.vms))
	}
	for i := range c.vms {
		v := &c.vms[i]
		if v.built == nil {
			var err error
			if v.built, err = predict.NewDetector(c.cfg.Detector, c.detectorOptions(v.id)); err != nil {
				return err
			}
		}
		c.lanes[v.store] = v.built.(*detector.EWMA)
	}
	fleet, err := detector.JoinEWMA(c.lanes)
	clear(c.lanes) // an installed detector may replace a built one
	if err != nil {
		return err
	}
	const block = detector.FleetBlock
	blocks := (len(c.vms) + block - 1) / block
	runner := pool.Runner{Workers: c.cfg.TrainWorkers}
	tasks := runner.Size(blocks)
	if len(c.fleetFits) < tasks {
		c.fleetFits = append(c.fleetFits, make([]detector.EWMAFleetFit, tasks-len(c.fleetFits))...)
	}
	win := c.store.Window()
	if tasks == 1 {
		err = c.fitLanes(win, fleet, 0, 0, len(c.vms))
	} else {
		err = runner.ForEachWorker(context.Background(), tasks, func(_ context.Context, w, i int) error {
			return c.fitLanes(win, fleet, w, min(block*(i*blocks/tasks), len(c.vms)), min(block*((i+1)*blocks/tasks), len(c.vms)))
		})
	}
	if err != nil {
		return err
	}
	for i := range c.vms {
		c.vms[i].det, c.vms[i].fitAt = c.vms[i].built, now
	}
	c.ewma = fleet
	return nil
}

// fitLanes refits lanes lo..hi-1 of fleet with training worker w's
// working memory.
func (c *Controller) fitLanes(win columnar.Window, fleet *detector.EWMAFleet, w, lo, hi int) error {
	lane, err := c.fleetFits[w].Fit(win, fleet, lo, hi)
	if err == nil {
		return nil
	}
	for i := range c.vms {
		if c.vms[i].store == lane {
			return fmt.Errorf("train %s: %w", c.vms[i].id, err)
		}
	}
	return err
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

// fitBuf is one training worker's rows and labels (see Store.RowsInto).
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

// fitVM fits the i-th VM's detector from its recorded history, gathered
// from the store into buf, and installs it as fit at now. The
// detector adapter applies the kind-appropriate training protocol:
// anomaly-onset relabeling plus a TAN fit that keeps its counts, or an
// unlabeled outlier/forecast fit. A detector is built
// only when the VM has none of its own (first training, or after
// installDetectors); otherwise the one it built is refit in place. Train
// replaces all model state and keeps neither rows nor labels, so buf is
// free for the worker's next VM.
func (c *Controller) fitVM(now simclock.Time, i int, buf *fitBuf) error {
	v := &c.vms[i]
	buf.backing, buf.rows, buf.labels = c.store.RowsInto(v.store, buf.backing, buf.rows, buf.labels)
	if v.built == nil {
		var err error
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
// train-once) observes each sample and refits from the retained history.
func (c *Controller) incrementalTraining() bool {
	return c.cfg.Detector.Kind == detector.KindTAN && c.cfg.RetrainIntervalS > 0
}

// retrain performs one periodic model update. Under incremental
// training every tan detector rebuilds its classifier from its
// accumulated count table (O(attrs²·bins²), independent of history
// length); every other configuration refits from the retained history
// (O(history)). Alarm filter windows restart empty either way.
func (c *Controller) retrain(now simclock.Time) error {
	incremental := c.incrementalTraining()
	latency := c.tel.retrainBatch
	if incremental {
		latency = c.tel.retrainIncremental
	}
	defer latency.ObserveSince(time.Now())
	return c.fitEach(now, incremental)
}

// A controller's model snapshot and an engine's (engine.go) are binary
// documents: a magic, the layout version, then the body appendModels or
// AppendEngineModels writes (DESIGN.md §10). Versions 1 and 2 were
// JSON, and RestoreModels refuses them.
const (
	modelsMagic   = "PCM"
	modelsVersion = 3
)

// SaveModels writes the controller's trained per-VM detectors as one
// binary document. The snapshot is self-contained: restored into a
// fresh controller over the same VM set (RestoreModels), it reproduces
// the saved controller's subsequent predictions exactly. Every detector
// kind snapshots, including unsupervised detectors and ensembles.
func (c *Controller) SaveModels(w io.Writer) error {
	e := binenc.NewEncoder(nil)
	e.Header(modelsMagic, modelsVersion)
	c.appendModels(&e, "control")
	return writeDocument(w, &e)
}

// appendModels appends the controller's body: the VM count, then per
// VM, in vmOrder, its ID, its detector kind and a section holding the
// detector's AppendBinary. An untrained controller fails e, its error
// prefixed with errPrefix.
func (c *Controller) appendModels(e *binenc.Encoder, errPrefix string) {
	if !c.trained {
		e.Fail(fmt.Errorf("%s: models are not trained", errPrefix))
		return
	}
	e.Uvarint(uint64(len(c.vms)))
	for _, v := range c.vms {
		e.String(string(v.id))
		e.String(v.det.Kind())
		e.Section(v.det.AppendBinary)
	}
}

// writeDocument writes a finished document to w.
func writeDocument(w io.Writer, e *binenc.Encoder) error {
	b, err := e.Finish()
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// WriteModelsJSON renders the controller's trained per-VM detectors as
// the JSON model document, {"version":2,"vms":{ID:{"kind","data"}}}
// with each data the detector's JSON Save, for people and tools to
// read. It writes the envelope itself, keys in vmOrder (sorted by ID,
// as encoding/json sorts map keys), so the payloads are not
// re-compacted.
func WriteModelsJSON(w io.Writer, c *Controller) error {
	if !c.trained {
		return errors.New("control: models are not trained")
	}
	b, sep := []byte(`{"version":2,"vms":{`), ""
	var data bytes.Buffer
	for _, v := range c.vms {
		data.Reset()
		if err := v.det.Save(&data); err != nil {
			return fmt.Errorf("control: save models for %s: %w", v.id, err)
		}
		id, _ := json.Marshal(string(v.id)) // a string always marshals
		kind, _ := json.Marshal(v.det.Kind())
		b = fmt.Appendf(b, `%s%s:{"kind":%s,"data":%s}`, sep, id, kind, bytes.TrimSpace(data.Bytes()))
		sep = ","
	}
	_, err := w.Write(append(b, "}}\n"...))
	return err
}

// RestoreModels loads a SaveModels snapshot into the controller,
// marking it trained. The snapshot must provide a model for every VM
// the controller manages, and for no other. A snapshot that fails
// leaves the controller as it was.
func (c *Controller) RestoreModels(r io.Reader) error {
	d, err := readDocument(r, modelsMagic)
	if err != nil {
		return err
	}
	models, err := c.decodeModels(d)
	if err != nil {
		return err
	}
	c.installDetectors(models)
	return nil
}

// readDocument reads a whole document and checks its magic and
// version; a failed check surfaces as the decoder's error.
func readDocument(r io.Reader, magic string) (*binenc.Decoder, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("control: read models: %w", err)
	}
	d := binenc.NewDecoder(raw)
	d.Header(magic, modelsVersion)
	return &d, nil
}

// decodeModels reads a controller body to the end of d into one
// detector per managed VM, in vmOrder, ready for installDetectors,
// without touching the controller. Its VM set is checked before any
// model is decoded.
func (c *Controller) decodeModels(d *binenc.Decoder) ([]detector.Detector, error) {
	// An ID, a kind and a section prefix take six bytes at least.
	n := d.Len(6)
	payloads := make(map[string][]byte, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id, kind, payload := d.String(), d.String(), d.Section()
		if _, dup := payloads[id]; dup {
			return nil, fmt.Errorf("control: snapshot has two models for VM %s", id)
		}
		if kind != c.cfg.Detector.Kind && d.Err() == nil {
			// A retraining tan controller would otherwise be handed a
			// model that cannot Retrain.
			return nil, fmt.Errorf("control: model for %s is %q, this controller runs %q", id, kind, c.cfg.Detector.Kind)
		}
		payloads[id] = payload
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("control: decode models: %w", err)
	}
	for _, v := range c.vms {
		if _, ok := payloads[string(v.id)]; !ok {
			return nil, fmt.Errorf("control: no model for VM %s", v.id)
		}
	}
	if extra := len(payloads) - len(c.vms); extra > 0 {
		return nil, fmt.Errorf("control: snapshot has models for %d VMs this controller does not manage", extra)
	}
	models := make([]detector.Detector, len(c.vms))
	for i, v := range c.vms {
		var err error
		if models[i], err = predict.DecodeDetector(c.cfg.Detector.Kind, payloads[string(v.id)], c.detectorOptions(v.id)); err != nil {
			return nil, fmt.Errorf("control: restore models for %s: %w", v.id, err)
		}
	}
	return models, nil
}

// installDetectors installs pre-trained detectors — one per managed VM,
// in vmOrder — and marks the controller trained, so it starts
// predicting without an online training pass. The alarm filter windows
// are emptied, as train empties them, and the next periodic retrain is
// left for the next sampling tick to schedule.
func (c *Controller) installDetectors(models []detector.Detector) {
	for i := range c.vms {
		// Retraining replaces an installed detector rather than refitting
		// it in place: it may carry options this controller did not give
		// it.
		c.vms[i].det, c.vms[i].built = models[i], nil
		c.vms[i].filter.Reset()
	}
	c.ewma = c.adoptEWMA(models)
	c.trained = true
	c.nextRetrainAt = 0
}

// adoptEWMA joins installed detectors into the lanes of one ewma fleet,
// by store index, so that observe ticks them in one pass, when every
// one is a trained ewma detector over every attribute and all share
// one option set. Otherwise it returns nil, and observe drives each
// VM's detector on its own.
func (c *Controller) adoptEWMA(models []detector.Detector) *detector.EWMAFleet {
	lanes := make([]*detector.EWMA, len(c.vms))
	for i, m := range models {
		e, ok := m.(*detector.EWMA)
		if !ok || !e.Trained() {
			return nil
		}
		lanes[c.vms[i].store] = e
	}
	fleet, err := detector.JoinEWMA(lanes)
	if err != nil {
		return nil
	}
	return fleet
}
