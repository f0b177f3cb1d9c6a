package probes

import (
	"prepare/internal/bayes"
	"prepare/internal/markov"
	"prepare/internal/metrics"
)

func init() {
	register(Probe{
		Name: "bayes",
		Metrics: []Metric{
			lower("bayes.marginal_score_ns", "ns"),
			lower("bayes.count_add_ns", "ns"),
			lower("bayes.train_from_counts_us", "us"),
		},
		Run: runBayes,
	})
}

// runBayes builds VM 0's TAN model from the sufficient statistics of
// its training prefix and times the three operations the tick and the
// retrain lean on: folding one sample into the count table, rebuilding
// the model from the table, and scoring one step of predicted
// marginals through the log-ratio table.
func runBayes(c *Capture, env Env) ([]float64, error) {
	bins, err := c.binned(0)
	if err != nil {
		return nil, err
	}
	width := make([]int, metrics.NumAttributes)
	for a := range width {
		width[a] = modelBins
	}
	table, err := bayes.NewCountTable(width)
	if err != nil {
		return nil, err
	}
	var addErr error
	add := timeIt(env.Iters(200), func() {
		for k := 0; k < c.TrainTicks; k++ {
			if err := table.Add(bins[k], c.Label(k, 0) == metrics.LabelAbnormal); err != nil {
				addErr = err
			}
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	var model *bayes.Model
	var trainErr error
	train := timeIt(env.Iters(200), func() {
		if model, trainErr = bayes.TrainFromCounts(table, bayes.Options{}); trainErr != nil {
			return
		}
	})
	if trainErr != nil {
		return nil, trainErr
	}

	chains, err := fittedChains(bins, c.TrainTicks)
	if err != nil {
		return nil, err
	}
	var arena markov.BatchArena
	series := markov.PredictSeriesBatch(chains, lookaheadSteps, &arena)
	marginals := make([][]float64, len(series))
	lr := model.LogRatios()
	var sc bayes.Scratch
	const calls = 1000
	score := timeIt(env.Iters(200), func() {
		for n := 0; n < calls; n++ {
			for a := range marginals {
				marginals[a] = series[a][n%lookaheadSteps]
			}
			sink += model.MarginalScoreFast(marginals, lr, &sc)
		}
	})
	return []float64{score / calls, add / float64(c.TrainTicks), train / 1e3}, nil
}
