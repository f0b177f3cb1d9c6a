package bayes

import "math"

// LogRatios is a precomputed table of the per-attribute log likelihood
// ratios log[P(a_i=v | a_pi=u, C=1) / P(a_i=v | a_pi=u, C=0)] plus the
// class prior ratio — everything Equation (1) needs, with every
// math.Log evaluated once at build time instead of once per scored
// step. Scoring through the table is bit-identical to ScoreMarginals:
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
	// tab[i][v*lanes+u] is attribute i's log ratio at its own value v
	// and its parent's value u: the CPT transposed, so that lane u
	// holds parent value u — the layout markov.ProjectSeriesBatch
	// projects through. lanes is the widest attribute's bin count. A
	// root or naive attribute repeats its one row in every lane; lanes
	// past a parent's bin count hold 0 and are never read. The tables
	// are cut from store, which grows only when a refitted tree needs
	// more cells than any tree before it did.
	lanes int
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
	lr.lanes = 0
	cells := 0
	for _, b := range m.bins {
		lr.lanes = max(lr.lanes, b)
		cells += b
	}
	w := lr.lanes
	cells *= w
	if cap(lr.store) < cells {
		lr.store = make([]float64, cells)
	}
	store := lr.store[:cells]
	clear(store)
	for i := range lr.tab {
		n := m.bins[i] * w
		t := store[:n:n]
		store = store[n:]
		for u, abnormal := range m.cpt[i][1] {
			normal := m.cpt[i][0][u]
			for v := range abnormal {
				t[v*w+u] = math.Log(abnormal[v] / normal[v])
			}
		}
		if m.parent[i] < 0 {
			for v := 0; v < m.bins[i]; v++ {
				row := t[v*w : (v+1)*w]
				for u := range row {
					row[u] = row[0]
				}
			}
		}
		lr.tab[i] = t
	}
	lr.prior = m.ClassPrior()
	lr.gen = m.gen
}

// Lanes returns the lane count of the tables.
func (lr *LogRatios) Lanes() int { return lr.lanes }

// Tables returns every attribute's table, in attribute order (see the
// tab field). The tables belong to lr and change when it is refilled.
func (lr *LogRatios) Tables() [][]float64 { return lr.tab }

// WindowScore returns the largest Equation (1) score over a look-ahead
// window of steps predicted states, and the first step that reaches it,
// from the attributes' marginals projected through Tables:
// proj[(i*steps+s)*Lanes()+u] is attribute i's expected log ratio at
// step s with its parent at bin u (Σ_v marg[v]·Tables()[i][v*Lanes()+u],
// v ascending from +0, the v with marg[v] <= 0 left out), and
// argmax[i*steps+s] is attribute i's most likely bin at step s.
//
// Each step's score is MarginalScoreFast's for that step's marginals,
// bit for bit: the projection lane of the parent's most likely bin is
// the expectation MarginalScoreFast sums over the same table cells in
// the same order, and the step adds the prior and then one such lane per
// attribute, in attribute order. A later step wins only with a strictly
// greater score.
func (lr *LogRatios) WindowScore(proj []float64, argmax []int32, steps int) (best float64, bestStep int) {
	start := scoreHook.Start()
	defer scoreHook.Done(start)
	m := lr.model
	w := lr.lanes
	for s := 0; s < steps; s++ {
		score := lr.prior
		for i, p := range m.parent {
			u := 0
			if p >= 0 {
				u = int(argmax[p*steps+s])
			}
			score += proj[(i*steps+s)*w+u]
		}
		if s == 0 || score > best {
			best, bestStep = score, s
		}
	}
	return best, bestStep
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

// MarginalScoreFast is the Equation (1) expected score of one step's
// predicted marginals — ScoreMarginals' score without the strengths
// ranking — evaluated through a precomputed LogRatios table and
// skipping per-call shape validation: callers size the marginals from
// the same bin configuration the model was trained with. The returned
// score is bit-identical to ScoreMarginals': argmax selection, skip
// conditions, and the summation order of both loops are unchanged; only
// the per-term math.Log calls are replaced by table lookups of the same
// float64 values.
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
		t := lr.tab[i]
		expL := 0.0
		for v, pv := range marginals[i] {
			if pv <= 0 {
				continue
			}
			expL += pv * t[v*lr.lanes+u]
		}
		score += expL
	}
	return score
}
