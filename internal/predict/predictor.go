// Package predict implements PREPARE's online anomaly prediction: the
// combination of per-attribute value prediction (Markov chains over
// discretized values) with multi-variate anomaly classification (the TAN
// model) applied to the predicted future values, so the system can
// foresee whether the application will enter the anomaly state within a
// look-ahead window.
//
// A Predictor is generic over named value columns. PREPARE instantiates
// one predictor per VM over that VM's 13 attributes (the paper's per-VM
// scheme); the monolithic baseline of Figure 10 instead concatenates the
// columns of every VM into a single predictor, which degrades accuracy
// as attribute value prediction errors accumulate.
package predict

import (
	"errors"
	"fmt"
	"time"

	"prepare/internal/bayes"
	"prepare/internal/markov"
	"prepare/internal/metrics"
)

// MarkovOrder selects the attribute value prediction model.
type MarkovOrder int

// The supported value predictors.
const (
	// SimpleMarkov is the first-order chain (the authors' earlier work).
	SimpleMarkov MarkovOrder = 1
	// TwoDependent is the paper's 2-dependent Markov chain.
	TwoDependent MarkovOrder = 2
)

// Config parameterizes a predictor.
type Config struct {
	// Bins is the number of discretized states per attribute (default 8).
	Bins int
	// Order selects the Markov model (default TwoDependent).
	Order MarkovOrder
	// Naive switches the classifier from TAN to naive Bayes.
	Naive bool
	// ArgmaxScore classifies the most likely predicted value per
	// attribute instead of scoring the expected TAN log-ratio over the
	// predicted distributions. The expectation (default) reacts earlier
	// on gradual drifts; argmax is more robust at very long horizons.
	ArgmaxScore bool
	// SamplingIntervalS is the seconds between consecutive samples, used
	// to convert look-ahead windows into prediction steps (default 5).
	SamplingIntervalS int64
}

func (c Config) withDefaults() Config {
	if c.Bins == 0 {
		c.Bins = 8
	}
	if c.Order == 0 {
		c.Order = TwoDependent
	}
	if c.SamplingIntervalS == 0 {
		c.SamplingIntervalS = 5
	}
	return c
}

// Errors returned by the predictor.
var (
	ErrNotTrained = errors.New("predict: predictor is not trained")
	ErrNoData     = errors.New("predict: no training data")
	ErrShape      = errors.New("predict: row shape mismatch")
)

// Verdict is the outcome of one anomaly prediction.
type Verdict struct {
	// Abnormal is true when the classifier marks the predicted future
	// state abnormal.
	Abnormal bool
	// Score is the TAN decision value (Equation 1); positive means
	// abnormal.
	Score float64
	// FutureBins is the predicted discretized value per column.
	FutureBins []int
	// Strengths ranks each column's contribution L_i (Equation 2),
	// strongest first.
	Strengths []bayes.Strength
}

// Predictor is a trained per-component anomaly prediction model.
//
// A Predictor reuses internal scratch buffers across prediction calls
// (as do its Markov chains), so it must stay confined to one goroutine;
// returned Verdicts are freshly allocated and safe to retain.
type Predictor struct {
	// vm is the value-prediction module; the hot paths below index its
	// disc and chains slices directly.
	vm      valueModel
	model   *bayes.Model
	trained bool

	// Scratch reused across predictions: per-step marginal headers, the
	// argmax bins of the step under evaluation, the classifier's own
	// scoring buffers, and ForecastValueMax's predicted series.
	marginalsScratch [][]float64
	futureScratch    []int
	scratch          bayes.Scratch
	forecastScratch  [][]float64

	// inc holds the sufficient statistics of incremental training, set
	// by TrainIncremental and nil on batch-trained predictors.
	inc *incrementalState

	// lr caches the TAN log-ratio table for the fleet batch scorer (see
	// Predictor.logRatios for how it is kept fresh).
	lr *bayes.LogRatios

	// lastBestStep records the winning window step of the most recent
	// PredictWindow call (0-based), for lead-time reporting.
	lastBestStep int

	// ins is the (possibly zero/disabled) telemetry wiring.
	ins Instruments
}

// New builds an untrained predictor over the named columns.
func New(cfg Config, names []string) (*Predictor, error) {
	vm, err := newValueModel(cfg, names)
	if err != nil {
		return nil, err
	}
	return &Predictor{vm: vm}, nil
}

// Names returns the predictor's column names.
func (p *Predictor) Names() []string {
	out := make([]string, len(p.vm.names))
	copy(out, p.vm.names)
	return out
}

// Trained reports whether Train has succeeded.
func (p *Predictor) Trained() bool { return p.trained }

// Config returns the effective configuration.
func (p *Predictor) Config() Config { return p.vm.cfg }

// Train fits the discretizers, value predictors and classifier from a
// labeled window of rows. Rows with LabelUnknown train the value
// predictors but are excluded from the classifier. Training requires at
// least one normal and is robust to (but weaker without) abnormal rows.
func (p *Predictor) Train(rows [][]float64, labels []metrics.Label) error {
	if len(rows) == 0 {
		return ErrNoData
	}
	if p.ins.TrainLatency != nil {
		defer p.ins.TrainLatency.ObserveSince(time.Now())
	}
	if len(rows) != len(labels) {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, len(rows), len(labels))
	}
	// Fit a copy so a failed Train leaves the predictor as it was.
	vm := p.vm
	if err := vm.fit(rows); err != nil {
		return err
	}

	nCols := len(vm.names)
	binsPerAttr := make([]int, nCols)
	for j := range binsPerAttr {
		binsPerAttr[j] = vm.cfg.Bins
	}
	var instances []bayes.Instance
	for i, row := range rows {
		if labels[i] != metrics.LabelNormal && labels[i] != metrics.LabelAbnormal {
			continue
		}
		binned := make([]int, nCols)
		for j, v := range row {
			binned[j] = vm.disc[j].Bin(v)
		}
		instances = append(instances, bayes.Instance{Bins: binned, Abnormal: labels[i] == metrics.LabelAbnormal})
	}
	if len(instances) == 0 {
		return fmt.Errorf("%w: no labeled rows", ErrNoData)
	}
	model, err := bayes.Train(instances, binsPerAttr, bayes.Options{Naive: vm.cfg.Naive})
	if err != nil {
		return fmt.Errorf("predict: train classifier: %w", err)
	}

	p.vm = vm
	p.model = model
	p.trained = true
	// A fresh batch fit discards any previous incremental statistics;
	// TrainIncremental reinstalls them after delegating here.
	p.inc = nil
	return nil
}

// Observe feeds a new runtime row to the value predictors, advancing
// their current state (the paper periodically updates the value
// prediction models with new measurements).
func (p *Predictor) Observe(row []float64) error {
	if !p.trained {
		return ErrNotTrained
	}
	return p.vm.observe(row)
}

// StepsFor converts a look-ahead window in seconds into prediction steps
// (at least 1).
func (p *Predictor) StepsFor(lookaheadS int64) int { return p.vm.stepsFor(lookaheadS) }

// ForecastValueMax returns the maximum expected value of one column
// over the look-ahead window: for each prediction step up to
// StepsFor(lookaheadS), the Markov chain's bin distribution is collapsed
// to an expected value via the discretizer's bin centers, and the
// largest step value is returned. Placement uses this to score
// candidate hosts by their forecast peak load rather than the current
// snapshot. Reports false when the predictor is untrained or the column
// is out of range.
func (p *Predictor) ForecastValueMax(col int, lookaheadS int64) (float64, bool) {
	if !p.trained || col < 0 || col >= len(p.vm.chains) {
		return 0, false
	}
	ch := p.vm.chains[col]
	series := p.forecastBuf(p.StepsFor(lookaheadS), ch.NumStates())
	ch.PredictSeriesInto(series)
	d := p.vm.disc[col]
	best := 0.0
	for s, dist := range series {
		v := 0.0
		for b, pb := range dist {
			v += pb * d.Center(b)
		}
		if s == 0 || v > best {
			best = v
		}
	}
	return best, true
}

// Predict classifies the predicted system state the given number of
// sampling steps ahead: each attribute's Markov chain yields a value
// distribution, and the TAN classifier scores the expected state
// (Equation 1 in expectation). FutureBins reports each attribute's most
// likely predicted bin for diagnostics.
func (p *Predictor) Predict(steps int) (Verdict, error) {
	if !p.trained {
		return Verdict{}, ErrNotTrained
	}
	marginals := p.marginalsBuf()
	for j, ch := range p.vm.chains {
		marginals[j] = ch.Predict(steps)
	}
	return p.score(marginals)
}

// forecastBuf returns the reusable steps × states series ForecastValueMax
// propagates into: one backing array with a view per step.
func (p *Predictor) forecastBuf(steps, states int) [][]float64 {
	if len(p.forecastScratch) != steps || len(p.forecastScratch[0]) != states {
		flat := make([]float64, steps*states)
		p.forecastScratch = make([][]float64, steps)
		for s := range p.forecastScratch {
			p.forecastScratch[s] = flat[s*states : (s+1)*states : (s+1)*states]
		}
	}
	return p.forecastScratch
}

// marginalsBuf returns the reusable per-attribute marginal header slice.
func (p *Predictor) marginalsBuf() [][]float64 {
	if cap(p.marginalsScratch) < len(p.vm.names) {
		p.marginalsScratch = make([][]float64, len(p.vm.names))
	}
	return p.marginalsScratch[:len(p.vm.names)]
}

// futureBuf returns the reusable argmax-bin slice.
func (p *Predictor) futureBuf() []int {
	if cap(p.futureScratch) < len(p.vm.names) {
		p.futureScratch = make([]int, len(p.vm.names))
	}
	return p.futureScratch[:len(p.vm.names)]
}

// PredictAt classifies the predicted state lookaheadS seconds ahead.
func (p *Predictor) PredictAt(lookaheadS int64) (Verdict, error) {
	return p.Predict(p.StepsFor(lookaheadS))
}

// PredictWindow forecasts whether the system will enter the anomaly
// state at ANY point within the look-ahead window (the paper's alerting
// semantics): the predicted state is classified at every step up to the
// horizon and the maximum-scoring verdict is returned. Point-in-time
// classification at long horizons would look "through" short anomalies
// into the recovery that follows them; the window maximum does not.
func (p *Predictor) PredictWindow(lookaheadS int64) (Verdict, error) {
	if !p.trained {
		return Verdict{}, ErrNotTrained
	}
	tStart := p.ins.windowStart()
	defer p.ins.windowDone(tStart)
	maxSteps := p.StepsFor(lookaheadS)
	series := make([][][]float64, len(p.vm.names))
	for j, ch := range p.vm.chains {
		series[j] = ch.PredictSeries(maxSteps)
	}
	// Locate the worst step with the allocation-free score path, then
	// materialize the full verdict (strengths ranking, future bins) for
	// that step only.
	marginals := p.marginalsBuf()
	bestStep, bestScore := 0, 0.0
	for s := 0; s < maxSteps; s++ {
		for j := range p.vm.names {
			marginals[j] = series[j][s]
		}
		score, err := p.stepScore(marginals)
		if err != nil {
			return Verdict{}, fmt.Errorf("predict: classify future state: %w", err)
		}
		if s == 0 || score > bestScore {
			bestStep, bestScore = s, score
		}
	}
	p.lastBestStep = bestStep
	for j := range p.vm.names {
		marginals[j] = series[j][bestStep]
	}
	return p.score(marginals)
}

// stepScore computes just the classification score for one step's
// marginals, reusing the predictor's scratch buffers.
func (p *Predictor) stepScore(marginals [][]float64) (float64, error) {
	if p.vm.cfg.ArgmaxScore {
		future := p.futureBuf()
		for j, dist := range marginals {
			future[j] = markov.ArgMax(dist)
		}
		return p.model.Score(future)
	}
	return p.model.MarginalScore(marginals, &p.scratch)
}

// score classifies one set of per-attribute predicted marginals.
func (p *Predictor) score(marginals [][]float64) (Verdict, error) {
	future := make([]int, len(p.vm.names))
	for j, dist := range marginals {
		future[j] = markov.ArgMax(dist)
	}
	var (
		score     float64
		strengths []bayes.Strength
		err       error
	)
	if p.vm.cfg.ArgmaxScore {
		score, err = p.model.Score(future)
		if err == nil {
			strengths, err = p.model.AttributeStrengths(future)
		}
	} else {
		score, strengths, err = p.model.ScoreMarginals(marginals)
	}
	if err != nil {
		return Verdict{}, fmt.Errorf("predict: classify future state: %w", err)
	}
	return Verdict{
		Abnormal:   score > 0,
		Score:      score,
		FutureBins: future,
		Strengths:  strengths,
	}, nil
}

// ClassifyCurrent classifies the given observed row directly (no value
// prediction) — used by the reactive baseline and by online validation.
func (p *Predictor) ClassifyCurrent(row []float64) (bool, error) {
	v, err := p.Evaluate(row)
	if err != nil {
		return false, err
	}
	return v.Abnormal, nil
}

// Evaluate classifies the given observed row directly (no value
// prediction), returning the full verdict including attribute strengths.
// The reactive intervention baseline uses this for its cause inference
// after an SLO violation has already been detected.
func (p *Predictor) Evaluate(row []float64) (Verdict, error) {
	if !p.trained {
		return Verdict{}, ErrNotTrained
	}
	if len(row) != len(p.vm.names) {
		return Verdict{}, fmt.Errorf("%w: row has %d columns, want %d", ErrShape, len(row), len(p.vm.names))
	}
	binned := make([]int, len(row))
	for j, v := range row {
		binned[j] = p.vm.disc[j].Bin(v)
	}
	score, err := p.model.Score(binned)
	if err != nil {
		return Verdict{}, fmt.Errorf("predict: classify current state: %w", err)
	}
	strengths, err := p.model.AttributeStrengths(binned)
	if err != nil {
		return Verdict{}, fmt.Errorf("predict: attribute strengths: %w", err)
	}
	return Verdict{
		Abnormal:   score > 0,
		Score:      score,
		FutureBins: binned,
		Strengths:  strengths,
	}, nil
}
