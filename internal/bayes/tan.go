// Package bayes implements the Tree-Augmented Naive Bayesian network
// (TAN) classifier PREPARE uses for multi-variate anomaly classification
// and metric attribution, plus the plain naive Bayes classifier as the
// weaker baseline from the authors' earlier work.
//
// The TAN model (Cohen et al., OSDI'04; Friedman et al.) extends naive
// Bayes with a tree of dependencies among the attributes: each attribute
// has the class variable plus at most one other attribute as parents.
// The tree is the maximum spanning tree over pairwise conditional mutual
// information given the class (the Chow-Liu construction).
//
// Classification follows the paper's Equation (1): the state is abnormal
// when
//
//	sum_i log[P(a_i|a_pi, C=1)/P(a_i|a_pi, C=0)] + log[P(C=1)/P(C=0)] > 0
//
// and Equation (2) defines the per-attribute strength
// L_i = log[P(a_i|a_pi, C=1)/P(a_i|a_pi, C=0)], whose ranking drives
// PREPARE's anomaly cause inference (Figure 3).
package bayes

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// laplaceAlpha is the additive smoothing constant for all probability
// estimates.
const laplaceAlpha = 0.5

// Errors returned by fitting and scoring.
var (
	ErrNoInstances = errors.New("bayes: no training instances")
	ErrShape       = errors.New("bayes: instance shape mismatch")
)

// Model is a trained TAN (or naive Bayes) classifier.
type Model struct {
	numAttrs int
	bins     []int // bins per attribute
	parent   []int // parent attribute index, -1 when class-only
	// cpt[i][c] is a [parentBins][attrBins] table of smoothed
	// conditional probabilities P(a_i = v | a_pi = u, C = c); parentBins
	// is 1 for root/naive attributes.
	cpt        [][2][][]float64
	classCount [2]float64
	total      float64

	// gen counts the fits the model has been through. A LogRatios table
	// records the one it was filled at, which is how a table cached
	// next to a model that is refitted in place knows it is stale.
	gen uint64

	// Storage every refit reuses, so refitting allocates nothing once
	// the model has been fitted: cptStore backs every CPT row and
	// cptRows every cpt[i][c] header block (carveCPTs lays them out for
	// the current tree); inTree, best and bestFrom are Prim's scratch.
	cptStore []float64
	cptRows  [][]float64
	inTree   []bool
	best     []float64
	bestFrom []int
}

// Options controls training.
type Options struct {
	// Naive disables the dependency tree, producing a plain naive Bayes
	// classifier (every attribute's only parent is the class).
	Naive bool
}

func classIdx(abnormal bool) int {
	if abnormal {
		return 1
	}
	return 0
}

// buildTree sets m.parent to the Chow-Liu maximum spanning tree over the
// table's pairwise conditional mutual information (the root has parent
// -1), by Prim's algorithm from attribute 0. Each pair's CMI is needed
// exactly once — when the first of the two joins the tree — so it is
// evaluated there instead of into a matrix up front.
func (m *Model) buildTree(t *CountTable) {
	n := m.numAttrs
	parent, inTree, best, bestFrom := m.parent, m.inTree, m.best, m.bestFrom
	parent[0], inTree[0] = -1, true
	for j := 1; j < n; j++ {
		inTree[j] = false
		best[j] = t.cmi(0, j)
		bestFrom[j] = 0
	}
	for added := 1; added < n; added++ {
		pick := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && (pick == -1 || best[j] > best[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		parent[pick] = bestFrom[pick]
		for j := 0; j < n; j++ {
			if inTree[j] {
				continue
			}
			if v := t.cmi(pick, j); v > best[j] {
				best[j] = v
				bestFrom[j] = pick
			}
		}
	}
}

// cmiFromCounts estimates I(A_i; A_j | C) with Laplace smoothing from
// per-class joint and marginal count tables. joint[c] is indexed
// [vi*bj+vj]. Every count converts to float64 exactly.
func cmiFromCounts(bi, bj int, joint, margI, margJ [2][]uint32, classN [2]uint32) float64 {
	total := float64(classN[0]) + float64(classN[1])
	info := 0.0
	for c := 0; c < 2; c++ {
		if classN[c] == 0 {
			continue
		}
		nc := float64(classN[c])
		pc := nc / total
		for vi := 0; vi < bi; vi++ {
			for vj := 0; vj < bj; vj++ {
				pxy := (float64(joint[c][vi*bj+vj]) + laplaceAlpha) / (nc + laplaceAlpha*float64(bi*bj))
				px := (float64(margI[c][vi]) + laplaceAlpha) / (nc + laplaceAlpha*float64(bi))
				py := (float64(margJ[c][vj]) + laplaceAlpha) / (nc + laplaceAlpha*float64(bj))
				if pxy > 0 {
					info += pc * pxy * math.Log(pxy/(px*py))
				}
			}
		}
	}
	return info
}

// initShape gives a zero model its attributes.
func (m *Model) initShape(bins []int) {
	n := len(bins)
	m.numAttrs = n
	m.bins = append([]int(nil), bins...)
	m.parent = make([]int, n)
	m.cpt = make([][2][][]float64, n)
	m.inTree = make([]bool, n)
	m.best = make([]float64, n)
	m.bestFrom = make([]int, n)
}

// parentBins is the number of parent rows attribute i's tables have
// under the current parent array: one for a root or naive attribute,
// the parent's bin count otherwise.
func (m *Model) parentBins(i int) int {
	if p := m.parent[i]; p >= 0 {
		return m.bins[p]
	}
	return 1
}

// carveCPTs lays the tables the current parent array calls for out over
// the model's flat storage, which grows only when a tree needs more
// than any tree before it did (with equal bin counts throughout, every
// TAN tree needs the same). The cells keep whatever an earlier fit left
// there; the caller overwrites every one.
func (m *Model) carveCPTs() {
	rows, cells := 0, 0
	for i, bi := range m.bins {
		rows += 2 * m.parentBins(i)
		cells += 2 * m.parentBins(i) * bi
	}
	if cap(m.cptRows) < rows {
		m.cptRows = make([][]float64, rows)
	}
	if cap(m.cptStore) < cells {
		m.cptStore = make([]float64, cells)
	}
	headers, store := m.cptRows[:rows], m.cptStore[:cells]
	for i, bi := range m.bins {
		pb := m.parentBins(i)
		for c := 0; c < 2; c++ {
			m.cpt[i][c], headers = headers[:pb:pb], headers[pb:]
			for u := range m.cpt[i][c] {
				m.cpt[i][c][u], store = store[:bi:bi], store[bi:]
			}
		}
	}
}

// normalizeCPTs converts raw counts into smoothed distributions: each
// (attr, class, parentValue) row becomes a distribution over attr
// values.
func (m *Model) normalizeCPTs() {
	for i := 0; i < m.numAttrs; i++ {
		for c := 0; c < 2; c++ {
			for u := range m.cpt[i][c] {
				row := m.cpt[i][c][u]
				total := 0.0
				for _, n := range row {
					total += n
				}
				denom := total + laplaceAlpha*float64(len(row))
				for v := range row {
					row[v] = (row[v] + laplaceAlpha) / denom
				}
			}
		}
	}
}

// NumAttributes returns the number of attributes the model was trained
// on.
func (m *Model) NumAttributes() int { return m.numAttrs }

// ClassPrior returns the smoothed log prior ratio
// log P(C=1)/P(C=0).
func (m *Model) ClassPrior() float64 {
	p1 := (m.classCount[1] + laplaceAlpha) / (m.total + 2*laplaceAlpha)
	p0 := (m.classCount[0] + laplaceAlpha) / (m.total + 2*laplaceAlpha)
	return math.Log(p1 / p0)
}

// checkShape validates an observation vector.
func (m *Model) checkShape(bins []int) error {
	if len(bins) != m.numAttrs {
		return fmt.Errorf("%w: got %d attrs, want %d", ErrShape, len(bins), m.numAttrs)
	}
	for i, v := range bins {
		if v < 0 || v >= m.bins[i] {
			return fmt.Errorf("%w: attr %d value %d not in [0,%d)", ErrShape, i, v, m.bins[i])
		}
	}
	return nil
}

// strength returns L_i (Equation 2) for attribute i under the
// observation.
func (m *Model) strength(bins []int, i int) float64 {
	u := 0
	if p := m.parent[i]; p >= 0 {
		u = bins[p]
	}
	v := bins[i]
	return math.Log(m.cpt[i][1][u][v] / m.cpt[i][0][u][v])
}

// Score returns the left-hand side of Equation (1): positive scores
// classify as abnormal.
func (m *Model) Score(bins []int) (float64, error) {
	if err := m.checkShape(bins); err != nil {
		return 0, err
	}
	score := m.ClassPrior()
	for i := range bins {
		score += m.strength(bins, i)
	}
	return score, nil
}

// Scratch holds the reusable buffer of MarginalScoreFast. A zero
// Scratch is ready to use; the buffer grows on demand and is reused
// across calls, so one Scratch must not be shared between goroutines.
type Scratch struct {
	argmax []int
}

func (s *Scratch) argmaxBuf(n int) []int {
	if cap(s.argmax) < n {
		s.argmax = make([]int, n)
	}
	return s.argmax[:n]
}

// ScoreMarginals evaluates Equation (1) in expectation over per-attribute
// predicted value distributions (as produced by the Markov value
// predictors): each attribute contributes E_v[L_i(v)] under its marginal,
// with the parent attribute fixed at its most likely predicted value.
// Compared to classifying the argmax values, the expected score shifts
// smoothly as probability mass drifts toward anomalous bins, which is
// what gives the anomaly predictor usable lead time. It returns the
// score and the per-attribute expected strengths sorted descending.
func (m *Model) ScoreMarginals(marginals [][]float64) (float64, []Strength, error) {
	start := scoreHook.Start()
	defer scoreHook.Done(start)
	argmax, err := m.checkMarginals(marginals)
	if err != nil {
		return 0, nil, err
	}
	strengths := make([]Strength, m.numAttrs)
	score := m.ClassPrior()
	for i := 0; i < m.numAttrs; i++ {
		expL := m.expectedStrength(marginals, argmax, i)
		strengths[i] = Strength{Attribute: i, L: expL}
		score += expL
	}
	sort.SliceStable(strengths, func(a, b int) bool { return strengths[a].L > strengths[b].L })
	return score, strengths, nil
}

// checkMarginals validates the marginal shapes and returns each
// attribute's most likely predicted bin.
func (m *Model) checkMarginals(marginals [][]float64) ([]int, error) {
	if len(marginals) != m.numAttrs {
		return nil, fmt.Errorf("%w: got %d marginals, want %d", ErrShape, len(marginals), m.numAttrs)
	}
	argmax := make([]int, m.numAttrs)
	for i, dist := range marginals {
		if len(dist) != m.bins[i] {
			return nil, fmt.Errorf("%w: marginal %d has %d bins, want %d", ErrShape, i, len(dist), m.bins[i])
		}
		best, bestIdx := -1.0, 0
		for v, p := range dist {
			if p > best {
				best = p
				bestIdx = v
			}
		}
		argmax[i] = bestIdx
	}
	return argmax, nil
}

// expectedStrength is E_v[L_i(v)] under attribute i's marginal, with the
// parent fixed at its most likely predicted value.
func (m *Model) expectedStrength(marginals [][]float64, argmax []int, i int) float64 {
	u := 0
	if p := m.parent[i]; p >= 0 {
		u = argmax[p]
	}
	expL := 0.0
	for v, pv := range marginals[i] {
		if pv <= 0 {
			continue
		}
		expL += pv * math.Log(m.cpt[i][1][u][v]/m.cpt[i][0][u][v])
	}
	return expL
}

// Strength is one attribute's contribution to an abnormal classification.
type Strength struct {
	Attribute int
	L         float64
}

// AttributeStrengths returns L_i for every attribute under the
// observation, sorted descending — the paper's ranked list of metrics
// most related to the predicted anomaly.
func (m *Model) AttributeStrengths(bins []int) ([]Strength, error) {
	if err := m.checkShape(bins); err != nil {
		return nil, err
	}
	out := make([]Strength, m.numAttrs)
	for i := 0; i < m.numAttrs; i++ {
		out[i] = Strength{Attribute: i, L: m.strength(bins, i)}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].L > out[b].L })
	return out, nil
}
