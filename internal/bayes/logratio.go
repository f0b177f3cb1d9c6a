package bayes

import "math"

// LogRatios is a precomputed table of the per-attribute log likelihood
// ratios log[P(a_i=v | a_pi=u, C=1) / P(a_i=v | a_pi=u, C=0)] plus the
// class prior ratio — everything Equation (1) needs, with every
// math.Log evaluated once at build time instead of once per scored
// step. Scoring through the table is bit-identical to MarginalScore:
// the logarithm of a given CPT ratio is the same float64 whether it is
// computed eagerly or lazily, and the multiply/add order of the scoring
// loop is unchanged.
//
// A LogRatios is tied to the exact Model it was built from. Refitting
// that model in place (RefitFromCounts) leaves the table stale until
// Refresh refills it; a different *Model needs a new table.
type LogRatios struct {
	model *Model
	gen   uint64 // model.gen the table was last filled at
	prior float64
	// tab[i][u*bins[i]+v]; parent row u is 0 for root/naive attributes.
	// The rows are cut from store, which grows only when a refitted
	// tree needs more cells than any tree before it did.
	tab   [][]float64
	store []float64
}

// LogRatios precomputes the Equation (1)/(2) log ratio table for the
// model.
func (m *Model) LogRatios() *LogRatios {
	lr := &LogRatios{model: m, tab: make([][]float64, m.numAttrs)}
	lr.fill()
	return lr
}

// fill evaluates every log ratio of the model's current fit.
func (lr *LogRatios) fill() {
	m := lr.model
	cells := 0
	for i := range lr.tab {
		cells += len(m.cpt[i][1]) * m.bins[i]
	}
	if cap(lr.store) < cells {
		lr.store = make([]float64, cells)
	}
	store := lr.store[:cells]
	for i := range lr.tab {
		bi := m.bins[i]
		n := len(m.cpt[i][1]) * bi
		lr.tab[i], store = store[:n:n], store[n:]
		for u, abnormal := range m.cpt[i][1] {
			normal := m.cpt[i][0][u]
			for v := range abnormal {
				lr.tab[i][u*bi+v] = math.Log(abnormal[v] / normal[v])
			}
		}
	}
	lr.prior = m.ClassPrior()
	lr.gen = m.gen
}

// Refresh refills the table in place when its model has been refitted
// since the table was last filled, and does nothing otherwise.
func (lr *LogRatios) Refresh() {
	if lr.gen != lr.model.gen {
		lr.fill()
	}
}

// Model returns the model the table was built from (for freshness
// checks by callers that cache a LogRatios next to a replaceable
// model pointer).
func (lr *LogRatios) Model() *Model { return lr.model }

// MarginalScoreFast is MarginalScore evaluated through a precomputed
// LogRatios table, skipping per-call shape validation — the batch
// prediction path guarantees marginal shapes by construction (its arena
// slices are sized from the same bin configuration the model was
// trained with). The returned score is bit-identical to MarginalScore:
// argmax selection, skip conditions, and the summation order of both
// loops are unchanged; only the per-term math.Log calls are replaced by
// table lookups of the same float64 values.
func (m *Model) MarginalScoreFast(marginals [][]float64, lr *LogRatios, sc *Scratch) float64 {
	start := scoreHook.Start()
	defer scoreHook.Done(start)
	argmax := sc.argmaxBuf(m.numAttrs)
	for i, dist := range marginals {
		best, bestIdx := -1.0, 0
		for v, p := range dist {
			if p > best {
				best = p
				bestIdx = v
			}
		}
		argmax[i] = bestIdx
	}
	score := lr.prior
	for i := 0; i < m.numAttrs; i++ {
		u := 0
		if p := m.parent[i]; p >= 0 {
			u = argmax[p]
		}
		bi := m.bins[i]
		row := lr.tab[i][u*bi : (u+1)*bi]
		expL := 0.0
		for v, pv := range marginals[i] {
			if pv <= 0 {
				continue
			}
			expL += pv * row[v]
		}
		score += expL
	}
	return score
}
