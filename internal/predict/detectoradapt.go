package predict

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/telemetry"
)

// DetectorOptions carries everything the model-backed detectors need
// from their host (the control loop or the offline scoring harness).
type DetectorOptions struct {
	// Names are the row column names.
	Names []string
	// Config configures the per-VM predictors (discretization, Markov
	// order, sampling interval).
	Config Config
	// Margin is the minimum TAN decision score for a raw predictive
	// alert (control.Config.AlertScoreMargin).
	Margin float64
	// LookbackSamples is the training relabel look-back
	// (lookaheadS / samplingIntervalS).
	LookbackSamples int
	// Incremental selects sufficient-statistics training for the TAN
	// detector, enabling O(1) Retrain.
	Incremental bool
	// Seed drives unsupervised detector initialization.
	Seed int64
	// Fleet, when non-nil, routes TAN window scoring through the
	// shared fleet batch scorer (the columnar hot path), for a tan
	// detector and for the tan members of an ensemble. A Verdict taken
	// after another predictor scored through the same fleet re-runs its
	// own window pass first.
	Fleet *Fleet
	// Instruments wires predictor telemetry (zero value disables).
	Instruments Instruments
	// Telemetry receives ensemble per-member counters (nil disables).
	Telemetry *telemetry.Registry
	// TelemetryScope scopes the ensemble counters (e.g. the VM ID).
	TelemetryScope string
}

// NewDetector builds an untrained detector for the spec. The kinds
// built on the value model live here: tan adapts the supervised
// Predictor, kmeans is the outlierDetector. ewma/zrobust
// come from the detector package; ensembles compose any of them.
func NewDetector(spec detector.Spec, opts DetectorOptions) (detector.Detector, error) {
	if spec.IsZero() {
		spec = detector.Spec{Kind: detector.KindTAN}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dims := len(opts.Names)
	if dims == 0 {
		return nil, errors.New("predict: detector needs at least one column")
	}
	switch spec.Kind {
	case detector.KindTAN:
		return &tanDetector{opts: opts}, nil
	case detector.KindKMeans:
		return &outlierDetector{opts: opts}, nil
	case detector.KindEWMA:
		cfg := opts.Config.withDefaults()
		return detector.NewEWMA(dims, detector.EWMAOptions{SamplingIntervalS: cfg.SamplingIntervalS}), nil
	case detector.KindZRobust:
		return detector.NewZRobust(dims, detector.ZRobustOptions{}), nil
	case detector.KindEnsemble:
		members := make([]detector.Member, len(spec.Members))
		for i, kind := range spec.Members {
			d, err := NewDetector(detector.Spec{Kind: kind}, opts)
			if err != nil {
				return nil, err
			}
			members[i] = detector.Member{Detector: d}
		}
		ens, err := detector.NewEnsemble(members, float64(spec.Quorum))
		if err != nil {
			return nil, err
		}
		ens.SetTelemetry(opts.Telemetry, opts.TelemetryScope)
		return ens, nil
	default:
		return nil, fmt.Errorf("predict: unknown detector kind %q", spec.Kind)
	}
}

// LoadDetector restores a detector snapshot written by Detector.Save,
// dispatching on the kind recorded alongside the snapshot (the
// controller's model snapshots store kind + payload per VM).
func LoadDetector(kind string, r io.Reader, opts DetectorOptions) (detector.Detector, error) {
	switch kind {
	case detector.KindTAN:
		p, err := Load(r)
		if err != nil {
			return nil, err
		}
		p.SetInstruments(opts.Instruments)
		return &tanDetector{opts: opts, p: p}, nil
	case detector.KindKMeans:
		return loadOutlierDetector(r, opts)
	case detector.KindEWMA:
		return detector.LoadEWMA(r)
	case detector.KindZRobust:
		return detector.LoadZRobust(r)
	case detector.KindEnsemble:
		ens, err := detector.LoadEnsemble(r, func(mk string, data []byte) (detector.Detector, error) {
			switch mk {
			case detector.KindTAN, detector.KindKMeans:
				return LoadDetector(mk, bytes.NewReader(data), opts)
			default:
				return nil, detector.ErrUnknownKind
			}
		})
		if err != nil {
			return nil, err
		}
		ens.SetTelemetry(opts.Telemetry, opts.TelemetryScope)
		return ens, nil
	default:
		return nil, fmt.Errorf("predict: unknown detector kind %q", kind)
	}
}

// tanDetector adapts the supervised Markov+TAN Predictor: Score is
// PredictWindow (or the fleet's batched equivalent) against the alert
// margin, Current is Evaluate, Update/Retrain route to the incremental
// sufficient-statistics machinery when enabled. Byte-identical to the
// control loop's former hard-wired supervised path.
type tanDetector struct {
	opts DetectorOptions
	p    *Predictor

	lastDec     detector.Decision
	lastVerdict Verdict // scalar-path verdict cached for Verdict()
	lastScalar  bool
	lastValid   bool
	lookaheadS  int64 // the last Score's window, to re-run it in Verdict
}

// Kind implements detector.Detector.
func (d *tanDetector) Kind() string { return detector.KindTAN }

// Train implements detector.Detector: a fresh predictor is fit exactly
// as the control loop's fitVM used to — incremental training when
// enabled, otherwise anomaly-onset relabeling plus a batch fit. rows
// and labels are mutated by relabeling, matching the legacy path.
func (d *tanDetector) Train(rows [][]float64, labels []metrics.Label) error {
	p, err := New(d.opts.Config, d.opts.Names)
	if err != nil {
		return err
	}
	p.SetInstruments(d.opts.Instruments)
	if d.opts.Incremental {
		if err := p.TrainIncremental(rows, labels, d.opts.LookbackSamples); err != nil {
			return err
		}
	} else {
		RelabelForTraining(rows, labels, d.opts.LookbackSamples)
		if err := p.Train(rows, labels); err != nil {
			return err
		}
	}
	d.p = p
	d.lastValid = false
	return nil
}

// Trained implements detector.Detector.
func (d *tanDetector) Trained() bool { return d.p != nil && d.p.Trained() }

// Update implements detector.Detector.
func (d *tanDetector) Update(row []float64, label metrics.Label) error {
	if d.p.Incremental() {
		return d.p.Update(row, label)
	}
	return d.p.Observe(row)
}

// Observe implements detector.Detector.
func (d *tanDetector) Observe(row []float64) error { return d.p.Observe(row) }

// Incremental implements detector.Detector.
func (d *tanDetector) Incremental() bool { return d.p != nil && d.p.Incremental() }

// Retrain implements detector.Detector.
func (d *tanDetector) Retrain() error {
	if d.p == nil {
		return ErrNotTrained
	}
	return d.p.Retrain()
}

// Score implements detector.Detector.
func (d *tanDetector) Score(lookaheadS int64) (detector.Decision, error) {
	d.lookaheadS = lookaheadS
	if d.opts.Fleet != nil {
		dec, err := d.opts.Fleet.ScoreWindow(d.p, lookaheadS)
		if err != nil {
			return detector.Decision{}, err
		}
		d.lastDec = detector.Decision{
			Abnormal:  dec.Score > d.opts.Margin,
			Score:     dec.Score,
			LeadSteps: dec.BestStep + 1,
		}
		d.lastScalar = false
	} else {
		v, err := d.p.PredictWindow(lookaheadS)
		if err != nil {
			return detector.Decision{}, err
		}
		d.lastVerdict = v
		d.lastDec = detector.Decision{
			Abnormal:  v.Score > d.opts.Margin,
			Score:     v.Score,
			LeadSteps: d.p.lastBestStep + 1,
		}
		d.lastScalar = true
	}
	d.lastValid = true
	return d.lastDec, nil
}

// Verdict implements detector.Detector.
func (d *tanDetector) Verdict() (detector.Verdict, error) {
	if !d.lastValid {
		return detector.Verdict{}, errors.New("predict: tan verdict without a preceding score")
	}
	v := d.lastVerdict
	if !d.lastScalar {
		f := d.opts.Fleet
		if !f.holds(d.p) {
			// Another predictor scored through the shared fleet since
			// Score and overwrote this window. Nothing may move the chains
			// or the model between Score and Verdict, so running the
			// window pass again reproduces the decision.
			if _, err := f.ScoreWindow(d.p, d.lookaheadS); err != nil {
				return detector.Verdict{}, err
			}
		}
		mv, err := f.Materialize(d.p)
		if err != nil {
			return detector.Verdict{}, err
		}
		v = mv
	}
	return supervisedVerdict(v, d.lastDec.Abnormal, d.lastDec.LeadSteps), nil
}

// Current implements detector.Detector: classify the sample as-is (the
// reactive path). Abnormal is the classifier's raw decision (score >
// 0), not the predictive margin, exactly as Evaluate reports it.
func (d *tanDetector) Current(row []float64) (detector.Verdict, error) {
	v, err := d.p.Evaluate(row)
	if err != nil {
		return detector.Verdict{}, err
	}
	return supervisedVerdict(v, v.Abnormal, 0), nil
}

// Save implements detector.Detector.
func (d *tanDetector) Save(w io.Writer) error {
	if d.p == nil {
		return ErrNotTrained
	}
	return d.p.Save(w)
}

// supervisedVerdict converts a predict.Verdict.
func supervisedVerdict(v Verdict, abnormal bool, lead int) detector.Verdict {
	out := detector.Verdict{Abnormal: abnormal, Score: v.Score, LeadSteps: lead}
	if len(v.Strengths) > 0 {
		out.Strengths = make([]detector.Strength, len(v.Strengths))
		for i, s := range v.Strengths {
			out.Strengths[i] = detector.Strength{Attribute: s.Attribute, L: s.L}
		}
	}
	return out
}
