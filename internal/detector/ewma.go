package detector

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"prepare/internal/metrics"
)

// EWMAOptions configures the Holt forecast-error detector. Zero fields
// take the defaults below.
type EWMAOptions struct {
	// Alpha is the level smoothing factor (default 0.3).
	Alpha float64
	// Beta is the trend smoothing factor (default 0.1).
	Beta float64
	// Slack is the robust-z dead zone per attribute: deviations under
	// Slack MADs contribute nothing (default 2).
	Slack float64
	// Threshold is the alert bar for the Mahalanobis-style deviation
	// score, in robust-z units (default 5: comfortably above healthy
	// steady-state blips, far below genuine fault ramps).
	Threshold float64
	// SamplingIntervalS converts a lookahead in seconds to forecast
	// steps (default 5, the control loop's sampling interval).
	SamplingIntervalS int64
	// Adapt is the baseline adaptation rate (default 0.05). Each
	// observed sample pulls center and scale toward it by Adapt, with
	// the sample's influence winsorized to 3 scales so the baseline
	// tracks persistent operating-point shifts (a prevention action
	// rebalancing the fleet) but cannot chase a fault ramp. Negative
	// disables adaptation (the baseline stays frozen at training).
	Adapt float64
}

func (o EWMAOptions) withDefaults() EWMAOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.3
	}
	if o.Beta == 0 {
		o.Beta = 0.1
	}
	if o.Slack == 0 {
		o.Slack = 2
	}
	if o.Threshold == 0 {
		o.Threshold = 5
	}
	if o.SamplingIntervalS == 0 {
		o.SamplingIntervalS = 5
	}
	if o.Adapt == 0 {
		o.Adapt = 0.05
	}
	// Negative stays negative: "disabled" must survive a snapshot
	// round-trip without re-defaulting to the 0.05 default.
	return o
}

// EWMA is a cheap streaming forecast-error detector: per-attribute Holt
// double-exponential smoothing (level + trend) projected over the
// prediction window, scored as robust Mahalanobis-style deviation from
// a median/MAD baseline frozen at training time. The trend term gives
// genuine lead time on ramp faults (a memory leak's projection crosses
// the alert bar before the raw values do) at a few ns per attribute.
type EWMA struct {
	opts EWMAOptions

	// robust per-attribute baseline: fit at Train, then adapted by
	// winsorized EW updates as samples stream (opts.Adapt).
	center []float64
	scale  []float64
	// scale0 floors the adapted scale at a quarter of the trained
	// scale so quiet stretches cannot shrink it into hypersensitivity.
	scale0 []float64

	// streaming Holt state.
	level []float64
	trend []float64
	n     int64 // samples streamed

	trained bool

	// cached by Score for Verdict, which recomputes the best step's
	// clamped per-attribute deviations into lastZ.
	lastDec   Decision
	lastZ     []float64
	lastValid bool

	scratch []float64
	// sums holds Score's per-step sums of squared deviations, grown to
	// the longest window scored.
	sums []float64
}

// NewEWMA builds an untrained EWMA detector over dims attributes.
func NewEWMA(dims int, opts EWMAOptions) *EWMA {
	return &EWMA{
		opts:    opts.withDefaults(),
		center:  make([]float64, dims),
		scale:   make([]float64, dims),
		scale0:  make([]float64, dims),
		level:   make([]float64, dims),
		trend:   make([]float64, dims),
		lastZ:   make([]float64, dims),
		scratch: make([]float64, dims),
	}
}

// Kind implements Detector.
func (e *EWMA) Kind() string { return KindEWMA }

// Train freezes the robust baseline from the history's normal samples
// (all samples when no normal labels are present) and warms the Holt
// filter by replaying the rows in order. Every piece of model state is
// overwritten in place, so a refit of a trained detector allocates
// nothing once the pooled working set has grown to the history's length.
func (e *EWMA) Train(rows [][]float64, labels []metrics.Label) error {
	if len(rows) == 0 {
		return errors.New("detector: ewma needs at least one training row")
	}
	dims := len(e.center)
	for _, r := range rows {
		if len(r) != dims {
			return fmt.Errorf("detector: ewma row has %d attributes, want %d", len(r), dims)
		}
	}
	// Fit into the slices NewEWMA allocated alongside level and trend
	// rather than replacing them, so a fleet's per-VM state stays where
	// it was laid out.
	_, b := fitBaseline(rows, labels, e.center, e.scale)
	b.release()
	copy(e.scale0, e.scale)
	// Warm the Holt filter on the full history (faulty spans included:
	// the filter tracks the signal, the frozen baseline judges it),
	// then zero the trend. A training history that ends near a faulty
	// span leaves a stale trend whose window projection dwarfs the
	// alert bar for minutes of false alarms; the filter re-learns a
	// live trend within ~1/Beta samples anyway.
	e.n = 0
	for _, r := range rows {
		e.advance(r)
	}
	for j := range e.trend {
		e.trend[j] = 0
	}
	e.trained = true
	e.lastValid = false
	return nil
}

// Trained implements Detector.
func (e *EWMA) Trained() bool { return e.trained }

// advance folds one sample into the Holt level/trend state.
func (e *EWMA) advance(row []float64) {
	if e.n == 0 {
		copy(e.level, row)
		for j := range e.trend {
			e.trend[j] = 0
		}
		e.n = 1
		return
	}
	a, b := e.opts.Alpha, e.opts.Beta
	for j, x := range row {
		prev := e.level[j]
		e.level[j] = a*x + (1-a)*(prev+e.trend[j])
		e.trend[j] = b*(e.level[j]-prev) + (1-b)*e.trend[j]
	}
	e.n++
}

// Update implements Detector. EWMA has no labeled statistics, so
// Update and Observe both just advance the filter.
func (e *EWMA) Update(row []float64, _ metrics.Label) error { return e.Observe(row) }

// Observe implements Detector.
func (e *EWMA) Observe(row []float64) error {
	if len(row) != len(e.level) {
		return fmt.Errorf("detector: ewma row has %d attributes, want %d", len(row), len(e.level))
	}
	e.advance(row)
	e.adapt(row)
	e.lastValid = false
	return nil
}

// adapt pulls the baseline toward the sample by opts.Adapt, with the
// sample's influence winsorized to 3 scales per attribute: a persistent
// operating-point shift (a prevention action rebalancing the fleet, a
// workload plateau change) is absorbed within ~1/Adapt samples, while a
// fault ramp outruns the bounded step and keeps alerting.
func (e *EWMA) adapt(row []float64) {
	g := e.opts.Adapt
	if g <= 0 || !e.trained {
		return
	}
	for j, x := range row {
		d := x - e.center[j]
		if lim := 3 * e.scale[j]; d > lim {
			d = lim
		} else if d < -lim {
			d = -lim
		}
		e.center[j] += g * d
		// 1.2533 = sqrt(pi/2) scales mean absolute deviation to the
		// stddev of a normal distribution.
		e.scale[j] = math.Max((1-g)*e.scale[j]+g*1.2533*math.Abs(d), 0.25*e.scale0[j])
	}
}

// Retrain implements Detector: the Holt state streams, but the frozen
// baseline needs history to refit, so periodic retrains refit via Train.
func (e *EWMA) Retrain() error {
	return errors.New("detector: ewma does not support incremental retrain")
}

// deviation writes the clamped robust z of values into out and returns
// the Mahalanobis-style score sqrt(sum of clamped z^2).
func (e *EWMA) deviation(values, out []float64) float64 {
	var sum float64
	for j, v := range values {
		z := math.Abs(v-e.center[j]) / e.scale[j]
		z -= e.opts.Slack
		if z < 0 {
			z = 0
		}
		out[j] = z
		sum += z * z
	}
	return math.Sqrt(sum)
}

// Score implements Detector: projects the Holt forecast over every
// step of the window and returns the worst deviation from the frozen
// baseline. Step 0 is the current level (jump faults), steps 1..h the
// trend projection (ramp faults). The per-attribute attribution is left
// to Verdict.
//
// An attribute whose clamped deviation is 0 at both ends of the window
// is 0 at every step, because the projection is monotone in h after
// rounding and scale > 0 (DESIGN.md, "Quiet attributes"), so it is
// skipped: it would add +0 to every step's sum. The rest are scored
// attribute-outer, step-inner, so each step still sums its attributes
// in order j = 0..D-1 with deviation's operations and every sum keeps
// its bits. The projection keeps project's expression shape at every
// site, so any fusion the compiler applies is the same at each.
func (e *EWMA) Score(lookaheadS int64) (Decision, error) {
	if !e.trained {
		return Decision{}, errors.New("detector: ewma not trained")
	}
	steps := int(lookaheadS / e.opts.SamplingIntervalS)
	if steps < 1 {
		steps = 1
	}
	if cap(e.sums) <= steps {
		e.sums = make([]float64, steps+1)
	}
	sums := e.sums[:steps+1]
	clear(sums)
	slack := e.opts.Slack
	for j, l := range e.level {
		t, c, s := e.trend[j], e.center[j], e.scale[j]
		first := math.Abs(l+float64(0)*t-c)/s - slack
		last := math.Abs(l+float64(steps)*t-c)/s - slack
		if first <= 0 && last <= 0 {
			continue
		}
		for h := range sums {
			z := math.Abs(l+float64(h)*t-c)/s - slack
			if z < 0 {
				z = 0
			}
			sums[h] += z * z
		}
	}
	best, bestStep := -1.0, 0
	for h, sum := range sums {
		if s := math.Sqrt(sum); s > best {
			best, bestStep = s, h
		}
	}
	e.lastDec = Decision{Abnormal: best > e.opts.Threshold, Score: best, LeadSteps: bestStep}
	e.lastValid = true
	return e.lastDec, nil
}

// project writes the Holt forecast h steps ahead into scratch and
// returns it.
func (e *EWMA) project(h int) []float64 {
	for j := range e.level {
		e.scratch[j] = e.level[j] + float64(h)*e.trend[j]
	}
	return e.scratch
}

// Verdict implements Detector. It recomputes the clamped deviations at
// the step Score chose, with the same projection and the same deviation
// arithmetic. That reproduces what Score saw exactly: lastValid holds
// only until the next Observe, Update or Train, so level, trend, center
// and scale are unchanged since.
func (e *EWMA) Verdict() (Verdict, error) {
	if !e.lastValid {
		return Verdict{}, errors.New("detector: ewma verdict without a preceding score")
	}
	e.deviation(e.project(e.lastDec.LeadSteps), e.lastZ)
	return Verdict{
		Abnormal:  e.lastDec.Abnormal,
		Score:     e.lastDec.Score,
		LeadSteps: e.lastDec.LeadSteps,
		Strengths: rankStrengths(e.lastZ),
	}, nil
}

// Current implements Detector: scores the sample itself, no forecast.
func (e *EWMA) Current(row []float64) (Verdict, error) {
	if !e.trained {
		return Verdict{}, errors.New("detector: ewma not trained")
	}
	if len(row) != len(e.center) {
		return Verdict{}, fmt.Errorf("detector: ewma row has %d attributes, want %d", len(row), len(e.center))
	}
	z := make([]float64, len(row))
	s := e.deviation(row, z)
	return Verdict{
		Abnormal:  s > e.opts.Threshold,
		Score:     s,
		Strengths: rankStrengths(z),
	}, nil
}

// ewmaSnapshot is the versioned JSON form of an EWMA detector.
type ewmaSnapshot struct {
	Version int         `json:"version"`
	Opts    EWMAOptions `json:"opts"`
	Center  []float64   `json:"center"`
	Scale   []float64   `json:"scale"`
	Scale0  []float64   `json:"scale0"`
	Level   []float64   `json:"level"`
	Trend   []float64   `json:"trend"`
	N       int64       `json:"n"`
	Trained bool        `json:"trained"`
}

// Save implements Detector.
func (e *EWMA) Save(w io.Writer) error {
	snap := ewmaSnapshot{
		Version: 1,
		Opts:    e.opts,
		Center:  e.center,
		Scale:   e.scale,
		Scale0:  e.scale0,
		Level:   e.level,
		Trend:   e.trend,
		N:       e.n,
		Trained: e.trained,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// LoadEWMA restores a detector saved by (*EWMA).Save; the restored
// detector resumes an identical score stream. A snapshot whose baseline
// no training produces is refused whole (ewmaSnapshot.check).
func LoadEWMA(r io.Reader) (*EWMA, error) {
	var snap ewmaSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("detector: decode ewma snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("detector: unsupported ewma snapshot version %d", snap.Version)
	}
	dims := len(snap.Center)
	if len(snap.Scale) != dims || len(snap.Scale0) != dims || len(snap.Level) != dims || len(snap.Trend) != dims {
		return nil, errors.New("detector: ewma snapshot dimension mismatch")
	}
	if err := snap.check(); err != nil {
		return nil, err
	}
	e := NewEWMA(dims, snap.Opts)
	copy(e.center, snap.Center)
	copy(e.scale, snap.Scale)
	copy(e.scale0, snap.Scale0)
	copy(e.level, snap.Level)
	copy(e.trend, snap.Trend)
	e.n = snap.N
	e.trained = snap.Trained
	return e, nil
}

// check refuses a baseline no training or streaming produces: a
// center, level or trend that is not finite or, once trained, a scale
// or scale0 that is not a finite positive number. Such a detector
// scores NaN or Inf on every sample, and Score's quiet-attribute skip
// holds only for scale > 0. An untrained snapshot keeps its zero
// scales: Train overwrites them.
func (snap *ewmaSnapshot) check() error {
	if err := allFinite("ewma", "center", snap.Center); err != nil {
		return err
	}
	if err := allFinite("ewma", "level", snap.Level); err != nil {
		return err
	}
	if err := allFinite("ewma", "trend", snap.Trend); err != nil {
		return err
	}
	if !snap.Trained {
		return nil
	}
	if err := allPositive("ewma", "scale", snap.Scale); err != nil {
		return err
	}
	return allPositive("ewma", "scale0", snap.Scale0)
}

// allFinite reports the first value of a snapshot field that is NaN or
// ±Inf.
func allFinite(kind, field string, xs []float64) error {
	for j, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("detector: %s snapshot %s[%d] = %v, want a finite value", kind, field, j, v)
		}
	}
	return nil
}

// allPositive reports the first value of a snapshot field that is not a
// finite number above zero; -0 and NaN are refused with the rest.
func allPositive(kind, field string, xs []float64) error {
	for j, v := range xs {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("detector: %s snapshot %s[%d] = %v, want a finite value above 0", kind, field, j, v)
		}
	}
	return nil
}

// baseline is Train's working set for the median/MAD fit: the normal
// rows' headers and the median column. It is pooled rather than kept by
// each detector, so a fleet holds one per training goroutine instead of
// one per VM, and a warm refit allocates nothing.
type baseline struct {
	normal [][]float64
	col    []float64
}

var baselines = sync.Pool{New: func() any { return new(baseline) }}

// fitBaseline fits center and scale in place on the rows a baseline is
// fit on: those not labeled abnormal, or every row when labels are
// absent or that would leave none. It returns those rows and the
// working set they live in, which the caller hands back to release once
// it is done with them.
func fitBaseline(rows [][]float64, labels []metrics.Label, center, scale []float64) ([][]float64, *baseline) {
	b := baselines.Get().(*baseline)
	keep := b.normal[:0]
	if len(labels) == len(rows) {
		for i, r := range rows {
			if labels[i] != metrics.LabelAbnormal {
				keep = append(keep, r)
			}
		}
	}
	if len(keep) == 0 {
		keep = append(keep, rows...)
	}
	b.normal = keep
	b.col = metrics.RobustScaleInto(keep, center, scale, b.col)
	return keep, b
}

// release clears the row headers, so no caller row outlives Train, and
// returns b to the pool.
func (b *baseline) release() {
	clear(b.normal)
	baselines.Put(b)
}

// rankStrengths converts per-attribute deviation weights into a ranked
// Strength slice (strongest first, attribute index breaking ties) with
// zero-weight attributes dropped.
func rankStrengths(weights []float64) []Strength {
	out := make([]Strength, 0, len(weights))
	for j, w := range weights {
		if w > 0 {
			out = append(out, Strength{Attribute: j, L: w})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].L != out[b].L {
			return out[a].L > out[b].L
		}
		return out[a].Attribute < out[b].Attribute
	})
	return out
}
