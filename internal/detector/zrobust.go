package detector

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"prepare/internal/metrics"
)

// ZRobustOptions configures the threshold-free z-score detector. Zero
// fields take the defaults below.
type ZRobustOptions struct {
	// Slack is the per-attribute robust-z dead zone (default 2,
	// matching the calibrated unsupervised z-score detector).
	Slack float64
	// CalibAlpha is the smoothing factor for the online score
	// calibration (default 0.02: ~50-sample memory).
	CalibAlpha float64
	// Sigmas is how many calibration deviations above the running
	// mean a score must land to alert (default 6).
	Sigmas float64
	// MinScore is an absolute floor: scores below it never alert, so
	// a perfectly flat stream cannot self-trigger (default 1).
	MinScore float64
}

func (o ZRobustOptions) withDefaults() ZRobustOptions {
	if o.Slack == 0 {
		o.Slack = 2
	}
	if o.CalibAlpha == 0 {
		o.CalibAlpha = 0.02
	}
	if o.Sigmas == 0 {
		o.Sigmas = 6
	}
	if o.MinScore == 0 {
		o.MinScore = 1
	}
	return o
}

// ZRobust is the threshold-free variant of the z-score outlier
// detector: the per-attribute deviation score is the same clamped
// robust-z sum, but instead of calibrating a fixed alert threshold
// from training-score quantiles it self-normalizes online — tracking
// an exponentially-weighted mean and variance of its own recent scores
// and alerting when the current score is an extreme outlier of that
// running distribution. No data-dependent threshold to tune; level
// shifts in the workload recalibrate automatically.
type ZRobust struct {
	opts ZRobustOptions

	// frozen at Train.
	center []float64
	scale  []float64

	// online calibration of the score stream.
	calibMean float64
	calibVar  float64
	calibN    int64

	lastRow   []float64
	lastScore float64
	trained   bool

	lastDec   Decision
	lastValid bool
}

// NewZRobust builds an untrained threshold-free z-score detector over
// dims attributes.
func NewZRobust(dims int, opts ZRobustOptions) *ZRobust {
	return &ZRobust{
		opts:    opts.withDefaults(),
		center:  make([]float64, dims),
		scale:   make([]float64, dims),
		lastRow: make([]float64, dims),
	}
}

// Kind implements Detector.
func (z *ZRobust) Kind() string { return KindZRobust }

// Train freezes the median/MAD baseline from the history's normal
// samples and seeds the online calibration by replaying the rows. Like
// EWMA.Train it overwrites every piece of model state in place.
func (z *ZRobust) Train(rows [][]float64, labels []metrics.Label) error {
	if len(rows) == 0 {
		return errors.New("detector: zrobust needs at least one training row")
	}
	dims := len(z.center)
	for _, r := range rows {
		if len(r) != dims {
			return fmt.Errorf("detector: zrobust row has %d attributes, want %d", len(r), dims)
		}
	}
	normal, b := fitBaseline(rows, labels, z.center, z.scale)
	defer b.release()
	z.calibMean, z.calibVar, z.calibN = 0, 0, 0
	z.trained = true
	z.lastValid = false
	for _, r := range normal {
		if err := z.Observe(r); err != nil {
			return err
		}
	}
	return nil
}

// Trained implements Detector.
func (z *ZRobust) Trained() bool { return z.trained }

// rawScore is the clamped robust-z sum of one row.
func (z *ZRobust) rawScore(row []float64) float64 {
	var sum float64
	for j, v := range row {
		d := math.Abs(v-z.center[j])/z.scale[j] - z.opts.Slack
		if d > 0 {
			sum += d
		}
	}
	return sum
}

// calibStd returns the running score deviation with a floor so flat
// streams cannot divide by ~0.
func (z *ZRobust) calibStd() float64 {
	return math.Max(math.Sqrt(z.calibVar), 0.05)
}

// anomalous applies the threshold-free criterion to a score.
func (z *ZRobust) anomalous(score float64) bool {
	if score < z.opts.MinScore {
		return false
	}
	return (score-z.calibMean)/z.calibStd() > z.opts.Sigmas
}

// Update implements Detector: scores the row against the calibration
// as of the previous tick, then folds the score in — unless the score
// itself is anomalous, so a long fault cannot drag its own alert bar
// up and silence itself.
func (z *ZRobust) Update(row []float64, _ metrics.Label) error { return z.Observe(row) }

// Observe implements Detector.
func (z *ZRobust) Observe(row []float64) error {
	if !z.trained {
		return errors.New("detector: zrobust not trained")
	}
	if len(row) != len(z.center) {
		return fmt.Errorf("detector: zrobust row has %d attributes, want %d", len(row), len(z.center))
	}
	copy(z.lastRow, row)
	s := z.rawScore(row)
	z.lastScore = s
	z.lastValid = false
	if z.calibN > 0 && z.anomalous(s) {
		return nil
	}
	a := z.opts.CalibAlpha
	if z.calibN == 0 {
		z.calibMean, z.calibVar = s, 0
	} else {
		d := s - z.calibMean
		z.calibMean += a * d
		z.calibVar = (1 - a) * (z.calibVar + a*d*d)
	}
	z.calibN++
	return nil
}

// Retrain implements Detector.
func (z *ZRobust) Retrain() error {
	return errors.New("detector: zrobust does not support incremental retrain")
}

// Score implements Detector: no value forecaster, so the window score
// is the last streamed sample's deviation (lead 0) judged against the
// running calibration.
func (z *ZRobust) Score(int64) (Decision, error) {
	if !z.trained {
		return Decision{}, errors.New("detector: zrobust not trained")
	}
	z.lastDec = Decision{Abnormal: z.anomalous(z.lastScore), Score: z.lastScore}
	z.lastValid = true
	return z.lastDec, nil
}

// Verdict implements Detector.
func (z *ZRobust) Verdict() (Verdict, error) {
	if !z.lastValid {
		return Verdict{}, errors.New("detector: zrobust verdict without a preceding score")
	}
	return Verdict{
		Abnormal:  z.lastDec.Abnormal,
		Score:     z.lastDec.Score,
		Strengths: z.strengths(z.lastRow),
	}, nil
}

// Current implements Detector.
func (z *ZRobust) Current(row []float64) (Verdict, error) {
	if !z.trained {
		return Verdict{}, errors.New("detector: zrobust not trained")
	}
	if len(row) != len(z.center) {
		return Verdict{}, fmt.Errorf("detector: zrobust row has %d attributes, want %d", len(row), len(z.center))
	}
	s := z.rawScore(row)
	return Verdict{
		Abnormal:  z.anomalous(s),
		Score:     s,
		Strengths: z.strengths(row),
	}, nil
}

// strengths ranks per-attribute clamped deviations.
func (z *ZRobust) strengths(row []float64) []Strength {
	w := make([]float64, len(row))
	for j, v := range row {
		if d := math.Abs(v-z.center[j])/z.scale[j] - z.opts.Slack; d > 0 {
			w[j] = d
		}
	}
	return rankStrengths(w)
}

// zrobustSnapshot is the versioned JSON form of a ZRobust detector.
type zrobustSnapshot struct {
	Version   int            `json:"version"`
	Opts      ZRobustOptions `json:"opts"`
	Center    []float64      `json:"center"`
	Scale     []float64      `json:"scale"`
	CalibMean float64        `json:"calib_mean"`
	CalibVar  float64        `json:"calib_var"`
	CalibN    int64          `json:"calib_n"`
	LastRow   []float64      `json:"last_row"`
	LastScore float64        `json:"last_score"`
	Trained   bool           `json:"trained"`
}

// Save implements Detector.
func (z *ZRobust) Save(w io.Writer) error {
	snap := zrobustSnapshot{
		Version:   1,
		Opts:      z.opts,
		Center:    z.center,
		Scale:     z.scale,
		CalibMean: z.calibMean,
		CalibVar:  z.calibVar,
		CalibN:    z.calibN,
		LastRow:   z.lastRow,
		LastScore: z.lastScore,
		Trained:   z.trained,
	}
	return json.NewEncoder(w).Encode(&snap)
}

// LoadZRobust restores a detector saved by (*ZRobust).Save; the
// restored detector resumes an identical score stream. A snapshot whose
// baseline no training produces is refused whole (zrobustSnapshot.check).
func LoadZRobust(r io.Reader) (*ZRobust, error) {
	var snap zrobustSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("detector: decode zrobust snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("detector: unsupported zrobust snapshot version %d", snap.Version)
	}
	dims := len(snap.Center)
	if len(snap.Scale) != dims || len(snap.LastRow) != dims {
		return nil, errors.New("detector: zrobust snapshot dimension mismatch")
	}
	if err := snap.check(); err != nil {
		return nil, err
	}
	z := NewZRobust(dims, snap.Opts)
	copy(z.center, snap.Center)
	copy(z.scale, snap.Scale)
	z.calibMean = snap.CalibMean
	z.calibVar = snap.CalibVar
	z.calibN = snap.CalibN
	copy(z.lastRow, snap.LastRow)
	z.lastScore = snap.LastScore
	z.trained = snap.Trained
	return z, nil
}

// check is ewmaSnapshot.check for the zrobust baseline: a center that
// is not finite or, once trained, a scale that is not a finite positive
// number scores NaN or Inf on every sample.
func (snap *zrobustSnapshot) check() error {
	if err := allFinite("zrobust", "center", snap.Center); err != nil {
		return err
	}
	if !snap.Trained {
		return nil
	}
	return allPositive("zrobust", "scale", snap.Scale)
}
