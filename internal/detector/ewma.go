package detector

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"prepare/internal/binenc"
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
//
// An EWMA is one lane of an EWMAFleet, which holds its state: a
// standalone detector (NewEWMA, DecodeEWMA) is the one lane of a state
// of its own, and JoinEWMA moves a fleet's detectors into the lanes of
// one state, which EWMAFleet.Tick advances and scores in one pass. Every
// method reads and writes the detector's lane in place.
type EWMA struct {
	f    *EWMAFleet
	lane int

	// lastZ receives Verdict's clamped per-attribute deviations and
	// scratch its projection; Train fits the baseline into the two
	// before it moves it to the lane.
	lastZ   []float64
	scratch []float64
	// loud holds the indices of the attributes Score found loud, in
	// order, with room for every attribute; sums holds the sweep's
	// per-step sums of squared deviations, grown to the longest window
	// swept.
	loud []int
	sums []float64
}

// NewEWMA builds an untrained EWMA detector over dims attributes, the
// one lane of a state of its own.
func NewEWMA(dims int, opts EWMAOptions) *EWMA {
	return newEWMAFleet(1, dims, opts.withDefaults()).dets[0]
}

// newLane builds the detector of lane i of f.
func newLane(f *EWMAFleet, i int) *EWMA {
	return &EWMA{
		f:       f,
		lane:    i,
		lastZ:   make([]float64, f.dims),
		scratch: make([]float64, f.dims),
		loud:    make([]int, 0, f.dims),
	}
}

// at is the index of attribute j of e's lane in its state's vectors.
func (e *EWMA) at(j int) int { return j*e.f.stride + e.lane }

// Kind implements Detector.
func (e *EWMA) Kind() string { return KindEWMA }

// Train freezes the robust baseline from the history's normal samples
// (all samples when no normal labels are present) and warms the Holt
// filter by replaying the rows in order. Every piece of model state is
// overwritten in place, so a refit of a trained detector allocates
// nothing once the pooled working set has grown to the history's length.
func (e *EWMA) Train(rows [][]float64, labels []metrics.Label) error {
	if len(rows) == 0 {
		return errNoTrainingRows
	}
	f := e.f
	for _, r := range rows {
		if len(r) != f.dims {
			return fmt.Errorf("detector: ewma row has %d attributes, want %d", len(r), f.dims)
		}
	}
	// Fit into the detector's own scratch, then move the baseline into
	// its lane, wherever the lane's state is laid out.
	_, b := fitBaseline(rows, labels, e.scratch, e.lastZ)
	b.release()
	for j := range f.dims {
		k := e.at(j)
		f.center[k], f.scale[k], f.scale0[k] = e.scratch[j], e.lastZ[j], e.lastZ[j]
	}
	// Warm the Holt filter on the full history (faulty spans included:
	// the filter tracks the signal, the frozen baseline judges it),
	// then zero the trend. A training history that ends near a faulty
	// span leaves a stale trend whose window projection dwarfs the
	// alert bar for minutes of false alarms; the filter re-learns a
	// live trend within ~1/Beta samples anyway.
	f.n[e.lane] = 0
	for _, r := range rows {
		e.advance(r)
	}
	for j := range f.dims {
		f.trend[e.at(j)] = 0
	}
	f.trained[e.lane] = true
	f.valid[e.lane] = false
	return nil
}

// Trained implements Detector.
func (e *EWMA) Trained() bool { return e.f.trained[e.lane] }

// advance folds one sample into the lane's Holt level and trend with
// holt, the step every kernel takes: the lane's first sample sets
// level = x and trend = 0.
func (e *EWMA) advance(row []float64) {
	f, first := e.f, e.f.n[e.lane] == 0
	for j, x := range row {
		k := e.at(j)
		if first {
			f.level[k], f.trend[k] = x, 0
		} else {
			f.level[k], f.trend[k] = holt(f.level[k], f.trend[k], x, f.opts.Alpha, f.opts.Beta)
		}
	}
	f.n[e.lane]++
}

// Update implements Detector. EWMA has no labeled statistics, so
// Update and Observe both just advance the filter.
func (e *EWMA) Update(row []float64, _ metrics.Label) error { return e.Observe(row) }

// Observe implements Detector.
func (e *EWMA) Observe(row []float64) error {
	if len(row) != e.f.dims {
		return fmt.Errorf("detector: ewma row has %d attributes, want %d", len(row), e.f.dims)
	}
	e.advance(row)
	e.adapt(row)
	e.f.valid[e.lane] = false
	return nil
}

// adapt pulls the baseline toward the sample by opts.Adapt, with the
// sample's influence winsorized to 3 scales per attribute: a persistent
// operating-point shift (a prevention action rebalancing the fleet, a
// workload plateau change) is absorbed within ~1/Adapt samples, while a
// fault ramp outruns the bounded step and keeps alerting.
func (e *EWMA) adapt(row []float64) {
	f := e.f
	g := f.opts.Adapt
	if g <= 0 || !f.trained[e.lane] {
		return
	}
	for j, x := range row {
		k := e.at(j)
		f.center[k], f.scale[k] = adaptStep(x, f.center[k], f.scale[k], f.scale0[k], g)
	}
}

// adaptStep is one attribute's baseline update by rate g toward sample
// x: center c moves by g times x's winsorized deviation d, and scale s
// toward 1.2533|d|, floored at a quarter of the trained scale s0.
// 1.2533 = sqrt(pi/2) scales mean absolute deviation to the stddev of a
// normal distribution. Each product is rounded before its sum, as the
// vector kernel rounds it. The builtin max runs inline; it differs from
// math.Max only on a NaN against +Inf, and the floor 0.25*s0 is finite
// wherever the sampler's sanitized rows trained it (DESIGN.md,
// "Monotone windows").
func adaptStep(x, c, s, s0, g float64) (center, scale float64) {
	d := x - c
	if lim := 3 * s; d > lim {
		d = lim
	} else if d < -lim {
		d = -lim
	}
	return c + float64(g*d), max(float64((1-g)*s)+float64(g*1.2533*math.Abs(d)), 0.25*s0)
}

// Retrain implements Detector: the Holt state streams, but the frozen
// baseline needs history to refit, so periodic retrains refit via Train.
func (e *EWMA) Retrain() error {
	return errors.New("detector: ewma does not support incremental retrain")
}

// deviation writes the clamped robust z of values into out and returns
// the Mahalanobis-style score sqrt(sum of clamped z^2).
func (e *EWMA) deviation(values, out []float64) float64 {
	f := e.f
	var sum float64
	for j, v := range values {
		k := e.at(j)
		z := math.Abs(v-f.center[k])/f.scale[k] - f.opts.Slack
		if z < 0 {
			z = 0
		}
		out[j] = z
		sum += float64(z * z)
	}
	return math.Sqrt(sum)
}

// offset is an attribute's projection h steps ahead less its center,
// level + h*trend - center, with the product rounded on its own as the
// vector kernel rounds it. Every site that projects uses it, so no
// build fuses one site and not another.
func offset(l, t, c, h float64) float64 { return l + float64(h*t) - c }

// clampedSquare is a robust z's share of a step's sum: 0 for z < 0,
// else z squared (a NaN stays NaN).
func clampedSquare(z float64) float64 {
	if z < 0 {
		z = 0
	}
	return float64(z * z)
}

// heading classifies a loud attribute by its trend t and its offsets
// at steps 0 and h: moving away from its center (or flat), toward it
// without crossing it, or across it, a NaN counting as a crossing. It
// reports whether the attribute rules out the window's away shortcut
// and its toward shortcut: a crossing rules out both.
func heading(t, d0, dH float64) (notAway, notToward bool) {
	switch {
	case t == 0 || t > 0 && d0 >= 0 || t < 0 && d0 <= 0:
		return false, true
	case t < 0 && dH >= 0 || t > 0 && dH <= 0:
		return true, false
	}
	return true, true
}

// windowSteps is the number of forecast steps in a lookahead of
// lookaheadS seconds, at least 1.
func (o *EWMAOptions) windowSteps(lookaheadS int64) int {
	return max(int(lookaheadS/o.SamplingIntervalS), 1)
}

// Score implements Detector: projects the Holt forecast over every
// step of the window and returns the worst deviation from the frozen
// baseline. Step 0 is the current level (jump faults), steps 1..h the
// trend projection (ramp faults). The per-attribute attribution is left
// to Verdict.
//
// One pass over the window's ends decides how much of the window has
// to be scored (DESIGN.md, "Quiet attributes" and "Monotone windows").
// An attribute whose clamped deviation is 0 at both ends is 0 at every
// step, because the projection is monotone in h after rounding and
// scale > 0, so it is skipped: it would add +0 to every step's sum. Each
// other, loud, attribute moves away from its center, toward it without
// crossing it, or across it (heading). When every loud attribute moves
// away, every step's sum is at least the one before, so the window's
// score is the far end's and only the first step that reaches it is
// searched for; when every one moves toward its center, step 0 wins.
// Only a crossing or a mix of directions sweeps the window,
// attribute-outer and step-inner over the loud attributes. Every path
// sums a step's attributes in order j = 0..D-1 with deviation's
// operations, so every sum, score and lead step has the sweep's bits.
// EWMAFleet.Tick settles most lanes from the same ends test and hands
// the rest to Score.
func (e *EWMA) Score(lookaheadS int64) (Decision, error) {
	f := e.f
	if !f.trained[e.lane] {
		return Decision{}, errors.New("detector: ewma not trained")
	}
	steps := f.opts.windowSteps(lookaheadS)
	slack, h := f.opts.Slack, float64(steps)
	loud := e.loud[:0]
	// away and toward stay true while every loud attribute so far
	// moves away from, or toward, its center; both hold when none is
	// loud. sum0 and sumH are the sums at steps 0 and steps.
	away, toward := true, true
	var sum0, sumH float64
	for j := range f.dims {
		k := e.at(j)
		l, t, c, s := f.level[k], f.trend[k], f.center[k], f.scale[k]
		d0, dH := offset(l, t, c, 0), offset(l, t, c, h)
		first, last := math.Abs(d0)/s-slack, math.Abs(dH)/s-slack
		if first <= 0 && last <= 0 {
			continue
		}
		loud = append(loud, j)
		notAway, notToward := heading(t, d0, dH)
		away, toward = away && !notAway, toward && !notToward
		sum0 += clampedSquare(first)
		sumH += clampedSquare(last)
	}
	var best float64
	step := 0
	switch {
	case toward:
		best = math.Sqrt(sum0)
	case away:
		best = math.Sqrt(sumH)
		if !math.IsNaN(best) {
			step = e.firstStepAt(best, steps, loud)
		}
	}
	// A NaN score breaks the order the shortcuts rest on; it takes the
	// sweep, as a crossing or a mix does.
	if !(away || toward) || math.IsNaN(best) {
		best, step = e.sweep(steps, loud)
	}
	f.dec[e.lane] = Decision{Abnormal: best > f.opts.Threshold, Score: best, LeadSteps: step}
	f.valid[e.lane] = true
	return f.dec[e.lane], nil
}

// stepSum returns step h's sum of squared clamped deviations over the
// loud attributes, added in index order as sweep adds them.
func (e *EWMA) stepSum(h int, loud []int) float64 {
	f, hf := e.f, float64(h)
	var sum float64
	for _, j := range loud {
		k := e.at(j)
		sum += clampedSquare(math.Abs(offset(f.level[k], f.trend[k], f.center[k], hf))/f.scale[k] - f.opts.Slack)
	}
	return sum
}

// firstStepAt returns the first step whose score equals best, the
// score at steps, on a window whose score does not fall from step to
// step: steps itself unless the step before ties it, else the start of
// the plateau, found by bisection.
func (e *EWMA) firstStepAt(best float64, steps int, loud []int) int {
	if math.Sqrt(e.stepSum(steps-1, loud)) < best {
		return steps
	}
	lo, hi := 0, steps-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if math.Sqrt(e.stepSum(mid, loud)) < best {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sweep scores every step of the window over the loud attributes,
// attribute-outer and step-inner into one sum per step, so the CPU
// overlaps the steps' independent chains of divides and adds, and
// returns the first strict maximum of the steps' scores and its step.
func (e *EWMA) sweep(steps int, loud []int) (float64, int) {
	if cap(e.sums) <= steps {
		e.sums = make([]float64, steps+1)
	}
	sums := e.sums[:steps+1]
	clear(sums)
	f := e.f
	for _, j := range loud {
		k := e.at(j)
		l, t, c, s := f.level[k], f.trend[k], f.center[k], f.scale[k]
		for h := range sums {
			sums[h] += clampedSquare(math.Abs(offset(l, t, c, float64(h)))/s - f.opts.Slack)
		}
	}
	best, bestStep := -1.0, 0
	for h, sum := range sums {
		if s := math.Sqrt(sum); s > best {
			best, bestStep = s, h
		}
	}
	return best, bestStep
}

// project writes the Holt forecast h steps ahead into scratch and
// returns it.
func (e *EWMA) project(h int) []float64 {
	f, hf := e.f, float64(h)
	for j := range e.scratch {
		k := e.at(j)
		e.scratch[j] = f.level[k] + float64(hf*f.trend[k])
	}
	return e.scratch
}

// Verdict implements Detector. It recomputes the clamped deviations at
// the step Score chose, with the same projection and the same deviation
// arithmetic. That reproduces what Score saw exactly: the lane's last
// decision is valid only until the next Observe, Update, Train or fleet
// tick, so level, trend, center and scale are unchanged since.
func (e *EWMA) Verdict() (Verdict, error) {
	f := e.f
	if !f.valid[e.lane] {
		return Verdict{}, errors.New("detector: ewma verdict without a preceding score")
	}
	dec := f.dec[e.lane]
	e.deviation(e.project(dec.LeadSteps), e.lastZ)
	return Verdict{
		Abnormal:  dec.Abnormal,
		Score:     dec.Score,
		LeadSteps: dec.LeadSteps,
		Strengths: rankStrengths(e.lastZ),
	}, nil
}

// Current implements Detector: scores the sample itself, no forecast.
func (e *EWMA) Current(row []float64) (Verdict, error) {
	f := e.f
	if !f.trained[e.lane] {
		return Verdict{}, errors.New("detector: ewma not trained")
	}
	if len(row) != f.dims {
		return Verdict{}, fmt.Errorf("detector: ewma row has %d attributes, want %d", len(row), f.dims)
	}
	z := make([]float64, len(row))
	s := e.deviation(row, z)
	return Verdict{
		Abnormal:  s > f.opts.Threshold,
		Score:     s,
		Strengths: rankStrengths(z),
	}, nil
}

// ewmaSnapshot is the one snapshot of an EWMA detector. Save gives it
// its JSON form, AppendBinary its binary checkpoint form, in which the
// header stays JSON.
type ewmaSnapshot struct {
	ewmaHeader
	Center  []float64 `json:"center"`
	Scale   []float64 `json:"scale"`
	Scale0  []float64 `json:"scale0"`
	Level   []float64 `json:"level"`
	Trend   []float64 `json:"trend"`
	N       int64     `json:"n"`
	Trained bool      `json:"trained"`
}

// ewmaHeader is the small scalar part of ewmaSnapshot.
type ewmaHeader struct {
	Version int         `json:"version"`
	Opts    EWMAOptions `json:"opts"`
}

// snapshot captures the detector: its lane's values, shared with the
// state where the lane is the only one.
func (e *EWMA) snapshot() ewmaSnapshot {
	f := e.f
	return ewmaSnapshot{
		ewmaHeader: ewmaHeader{Version: 1, Opts: f.opts},
		Center:     e.values(f.center),
		Scale:      e.values(f.scale),
		Scale0:     e.values(f.scale0),
		Level:      e.values(f.level),
		Trend:      e.values(f.trend),
		N:          f.n[e.lane],
		Trained:    f.trained[e.lane],
	}
}

// values returns e's lane of one of its state's vectors: the vector
// itself for a one-lane state, else a copy gathered from the lines.
func (e *EWMA) values(v []float64) []float64 {
	if e.f.stride == 1 {
		return v
	}
	out := make([]float64, e.f.dims)
	for j := range out {
		out[j] = v[e.at(j)]
	}
	return out
}

// Save implements Detector.
func (e *EWMA) Save(w io.Writer) error {
	snap := e.snapshot()
	return json.NewEncoder(w).Encode(&snap)
}

// AppendBinary implements Detector: the header as JSON, then the five
// baseline vectors as raw float64 bits.
func (e *EWMA) AppendBinary(b []byte) ([]byte, error) {
	snap := e.snapshot()
	return snap.appendBinary(b)
}

// appendBinary appends the snapshot's binary checkpoint form to b.
func (snap *ewmaSnapshot) appendBinary(b []byte) ([]byte, error) {
	enc := binenc.NewEncoder(b)
	enc.JSON(&snap.ewmaHeader)
	for _, xs := range [][]float64{snap.Center, snap.Scale, snap.Scale0, snap.Level, snap.Trend} {
		enc.Floats(xs)
	}
	enc.Int(snap.N)
	enc.Bool(snap.Trained)
	return enc.Finish()
}

// DecodeEWMA restores a detector from the bytes AppendBinary wrote; the
// restored detector resumes an identical score stream. A snapshot whose
// baseline no training produces is refused whole (ewmaSnapshot.check).
func DecodeEWMA(b []byte) (*EWMA, error) {
	var snap ewmaSnapshot
	d := binenc.NewDecoder(b)
	d.JSON(&snap.ewmaHeader)
	for _, xs := range []*[]float64{&snap.Center, &snap.Scale, &snap.Scale0, &snap.Level, &snap.Trend} {
		*xs = d.Floats()
	}
	snap.N = d.Int()
	snap.Trained = d.Bool()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("detector: decode ewma snapshot: %w", err)
	}
	return snap.restore()
}

// restore is the one validating restore of an ewma snapshot, whichever
// encoding it was read from.
func (snap *ewmaSnapshot) restore() (*EWMA, error) {
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
	f := e.f
	copy(f.center, snap.Center)
	copy(f.scale, snap.Scale)
	copy(f.scale0, snap.Scale0)
	copy(f.level, snap.Level)
	copy(f.trend, snap.Trend)
	f.n[0], f.trained[0] = snap.N, snap.Trained
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
// rows' headers and the fitter's columns. It is pooled rather than kept
// by each detector, so a fleet holds one per training goroutine instead
// of one per VM, and a warm refit allocates nothing.
type baseline struct {
	normal [][]float64
	fit    metrics.RobustFitter
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
	metrics.RobustScaleInto(keep, center, scale, &b.fit)
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
