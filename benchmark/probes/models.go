package probes

import (
	"prepare/internal/markov"
	"prepare/internal/metrics"
)

// Shared by the model probes: the capture discretized the way a
// predictor sees it, and chains fitted on its training prefix.

// modelBins is the predictor's default number of states per attribute.
const modelBins = 8

// lookaheadS and lookaheadSteps are the control loop's default
// prediction window.
const (
	lookaheadS     = 120
	lookaheadSteps = 24
)

// binned returns VM i's rows as bin indices, bins[k][attribute], under
// equal-width discretizers fitted on the training prefix.
func (c *Capture) binned(i int) ([][]int, error) {
	out := make([][]int, c.Ticks)
	for k := range out {
		out[k] = make([]int, metrics.NumAttributes)
	}
	col := make([]float64, c.TrainTicks)
	for a := 0; a < metrics.NumAttributes; a++ {
		for k := range col {
			col[k] = c.Row(k, i)[a]
		}
		d, err := metrics.NewEqualWidth(col, modelBins)
		if err != nil {
			return nil, err
		}
		for k := 0; k < c.Ticks; k++ {
			out[k][a] = d.Bin(c.Row(k, i)[a])
		}
	}
	return out, nil
}

// fittedChains returns one 2-dependent chain per attribute, fitted on
// the training prefix of the binned series.
func fittedChains(bins [][]int, trainTicks int) ([]markov.Predictor, error) {
	chains := make([]markov.Predictor, metrics.NumAttributes)
	seq := make([]int, trainTicks)
	for a := range chains {
		ch, err := markov.NewTwoDepChain(modelBins)
		if err != nil {
			return nil, err
		}
		for k := range seq {
			seq[k] = bins[k][a]
		}
		if err := ch.Fit(seq); err != nil {
			return nil, err
		}
		chains[a] = ch
	}
	return chains, nil
}
