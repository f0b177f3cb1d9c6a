package predict

import (
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
	// Incremental is ignored: every tan detector keeps its count table,
	// and its host decides per tick whether to fold samples (Update) and
	// refit from the counts (Retrain). It goes together with the
	// benchmark probes that still set it.
	Incremental bool
	// Seed drives unsupervised detector initialization.
	Seed int64
	// Fleet is the batch scorer every TAN window is scored through (the
	// columnar hot path), for a tan detector and for the tan members of
	// an ensemble. Sharing one fleet among a host's detectors shares its
	// scratch; nil gives each tan detector a fleet of its own. A
	// Verdict taken after another predictor scored through the same
	// fleet re-runs its own window pass first.
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
		return newTANDetector(opts, nil), nil
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

// DecodeDetector restores a detector of the given kind from the bytes
// its AppendBinary wrote (the controller's model snapshots store kind +
// payload per VM); the restored detector resumes an identical score
// stream.
func DecodeDetector(kind string, b []byte, opts DetectorOptions) (detector.Detector, error) {
	switch kind {
	case detector.KindTAN:
		p, err := decodePredictor(b)
		if err != nil {
			return nil, err
		}
		p.SetInstruments(opts.Instruments)
		return newTANDetector(opts, p), nil
	case detector.KindKMeans:
		return decodeOutlierDetector(b, opts)
	case detector.KindEWMA:
		return detector.DecodeEWMA(b)
	case detector.KindZRobust:
		return detector.DecodeZRobust(b)
	case detector.KindEnsemble:
		ens, err := detector.DecodeEnsemble(b, func(mk string, data []byte) (detector.Detector, error) {
			switch mk {
			case detector.KindTAN, detector.KindKMeans:
				return DecodeDetector(mk, data, opts)
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

// tanDetector adapts the supervised Markov+TAN Predictor: Train is
// TrainIncremental, Score is the fleet's window score against the alert
// margin, Current is Evaluate, and Update/Retrain fold samples into the
// predictor's count table and refit from it.
type tanDetector struct {
	opts  DetectorOptions
	fleet *Fleet // opts.Fleet, or the detector's own
	p     *Predictor

	lastDec    detector.Decision
	lastValid  bool
	lookaheadS int64 // the last Score's window, to re-run it in Verdict
}

// newTANDetector builds a tan adapter over p (nil until Train).
func newTANDetector(opts DetectorOptions, p *Predictor) *tanDetector {
	fleet := opts.Fleet
	if fleet == nil {
		fleet = NewFleet()
	}
	return &tanDetector{opts: opts, fleet: fleet, p: p}
}

// Kind implements detector.Detector.
func (d *tanDetector) Kind() string { return detector.KindTAN }

// Train implements detector.Detector: a fresh predictor is fit as
// TrainIncremental fits it, except that labels are relabeled in place,
// so the members an ensemble trains after this one see them exactly as
// RelabelForTraining leaves them.
func (d *tanDetector) Train(rows [][]float64, labels []metrics.Label) error {
	p, err := New(d.opts.Config, d.opts.Names)
	if err != nil {
		return err
	}
	p.SetInstruments(d.opts.Instruments)
	if err := p.relabelAndFit(rows, labels, d.opts.LookbackSamples); err != nil {
		return err
	}
	d.p = p
	d.lastValid = false
	return nil
}

// Trained implements detector.Detector.
func (d *tanDetector) Trained() bool { return d.p != nil && d.p.Trained() }

// Update implements detector.Detector.
func (d *tanDetector) Update(row []float64, label metrics.Label) error { return d.p.Update(row, label) }

// Observe implements detector.Detector.
func (d *tanDetector) Observe(row []float64) error { return d.p.Observe(row) }

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
	dec, err := d.fleet.ScoreWindow(d.p, lookaheadS)
	if err != nil {
		return detector.Decision{}, err
	}
	d.lastDec = detector.Decision{
		Abnormal:  dec.Score > d.opts.Margin,
		Score:     dec.Score,
		LeadSteps: dec.BestStep + 1,
	}
	d.lastValid = true
	return d.lastDec, nil
}

// Verdict implements detector.Detector.
func (d *tanDetector) Verdict() (detector.Verdict, error) {
	if !d.lastValid {
		return detector.Verdict{}, errors.New("predict: tan verdict without a preceding score")
	}
	if !d.fleet.holds(d.p) {
		// Another predictor scored through the shared fleet since Score
		// and overwrote this window. Nothing may move the chains or the
		// model between Score and Verdict, so running the window pass
		// again reproduces the decision; Score already counted it.
		if _, err := d.fleet.scoreWindow(d.p, d.lookaheadS); err != nil {
			return detector.Verdict{}, err
		}
	}
	v, err := d.fleet.Materialize(d.p)
	if err != nil {
		return detector.Verdict{}, err
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

// AppendBinary implements detector.Detector.
func (d *tanDetector) AppendBinary(b []byte) ([]byte, error) {
	if d.p == nil {
		return b, ErrNotTrained
	}
	return d.p.appendBinary(b)
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
