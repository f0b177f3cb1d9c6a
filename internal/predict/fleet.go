package predict

import (
	"errors"
	"fmt"

	"prepare/internal/bayes"
	"prepare/internal/markov"
)

// WindowDecision is the allocation-free result of one batched window
// scoring pass: the maximum Equation (1) score across the look-ahead
// window and the step it occurred at. Score is bit-identical to the
// Score of the Verdict Materialize builds from it (which re-scores the
// best step's marginals, reproducing the same float64).
type WindowDecision struct {
	Score    float64
	BestStep int
}

// Fleet scores the look-ahead windows of many predictors through one
// shared scratch arena; it is the one window scorer, and PredictWindow
// runs through a Fleet of the predictor's own. One Fleet serves any
// number of predictors; per VM it runs one Markov series kernel call
// per chain, which propagates every step of the window and projects
// each step's marginal through the TAN log-ratio table, then sums the
// projections into each step's Equation (1) score, without any per-VM
// allocation. Confirmed decisions are materialized into full Verdicts
// on demand (Materialize), so steady-state cost is independent of fleet
// size while alerting VMs still get the complete strengths ranking.
//
// A Fleet reuses internal scratch across calls and must stay confined
// to one goroutine, like the predictors themselves.
type Fleet struct {
	arena markov.BatchArena

	// Materialize context: the predictor scored last, its series views
	// into the arena, and the winning step. Arena views are overwritten
	// by the next ScoreWindow call.
	last      *Predictor
	lastBest  int
	lastValid bool
}

// NewFleet builds an empty fleet scorer.
func NewFleet() *Fleet { return &Fleet{} }

// ScoreWindow classifies the predicted state at every step of the
// look-ahead window and returns the maximum score and the first step
// that reaches it, without materializing a Verdict. Each step's score is
// the Equation (1) expectation over that step's predicted marginals, or
// under ArgmaxScore the score of each attribute's most likely bin.
func (f *Fleet) ScoreWindow(p *Predictor, lookaheadS int64) (WindowDecision, error) {
	f.lastValid = false
	if !p.trained {
		return WindowDecision{}, ErrNotTrained
	}
	tStart := p.ins.windowStart()
	defer p.ins.windowDone(tStart)
	maxSteps := p.StepsFor(lookaheadS)
	var dec WindowDecision
	if lr := p.logRatios(); lr != nil {
		markov.ProjectSeriesBatch(p.vm.chains, maxSteps, lr.Tables(), lr.Lanes(), &f.arena)
		dec.Score, dec.BestStep = lr.WindowScore(f.arena.Projections(), f.arena.Argmaxes(), maxSteps)
	} else {
		// Argmax scoring classifies each step's most likely bins, which
		// no projection expresses: score step by step from the arena.
		series := markov.PredictSeriesBatch(p.vm.chains, maxSteps, &f.arena)
		future := p.futureBuf()
		for s := 0; s < maxSteps; s++ {
			for j := range future {
				future[j] = markov.ArgMax(series[j][s])
			}
			score, err := p.model.Score(future)
			if err != nil {
				return WindowDecision{}, fmt.Errorf("predict: classify future state: %w", err)
			}
			if s == 0 || score > dec.Score {
				dec.BestStep, dec.Score = s, score
			}
		}
	}
	f.last, f.lastBest, f.lastValid = p, dec.BestStep, true
	return dec, nil
}

// holds reports whether the arena still holds p's most recent window.
func (f *Fleet) holds(p *Predictor) bool { return f.lastValid && f.last == p }

// Materialize builds the full Verdict (future bins, ranked strengths)
// for the predictor's most recent ScoreWindow decision. The decision's
// marginals live in the shared arena, so it fails once the fleet has
// scored another predictor (see tanDetector.Verdict for how the adapter
// recovers).
func (f *Fleet) Materialize(p *Predictor) (Verdict, error) {
	if !f.holds(p) {
		return Verdict{}, errors.New("predict: Materialize must follow ScoreWindow for the same predictor")
	}
	marginals := p.marginalsBuf()
	for j := range marginals {
		marginals[j] = f.arena.Series(j)[f.lastBest]
	}
	return p.score(marginals)
}

// logRatios returns the predictor's cached TAN log-ratio table, brought
// up to date with the model: Retrain refits the model in place, which
// the table notices by the model's fit generation and answers by
// refilling itself, and a fit installs a new *bayes.Model, which takes
// a new table. Nil when the configuration scores by argmax or the model
// is absent.
func (p *Predictor) logRatios() *bayes.LogRatios {
	if p.vm.cfg.ArgmaxScore || p.model == nil {
		return nil
	}
	if p.lr == nil || p.lr.Model() != p.model {
		p.lr = p.model.LogRatios()
	} else {
		p.lr.Refresh()
	}
	return p.lr
}
