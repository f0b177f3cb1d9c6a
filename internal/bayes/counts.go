package bayes

import (
	"fmt"
	"slices"
)

// CountTable holds the sufficient statistics of TAN training: the
// class counts, the class-conditional single-attribute value counts,
// and the class-conditional pairwise joint value counts for every
// attribute pair. Everything the Chow-Liu tree (conditional mutual
// information) and the CPTs need is a pure function of these tables,
// so a model can be (re)built from a CountTable in O(attrs² · bins²)
// regardless of how many instances produced it — the core of the
// incremental O(1)-per-sample training path.
//
// Counts are whole numbers stored as float64 (exact up to 2^53), and
// Add/Remove apply ±1 per cell, so a table built by streaming updates
// is bit-identical to one built from the equivalent batch of
// instances; TrainFromCounts then evaluates the same expressions as
// the batch trainer, making batch and incremental models provably —
// and in practice bitwise — equal.
//
// Memory is 2·(Σ_i b_i + Σ_{i<j} b_i·b_j) float64s: with the paper's
// 13 attributes × 8 bins, 2·(104 + 78·64) ≈ 10 200 cells ≈ 80 KB per
// VM, independent of history length.
type CountTable struct {
	bins       []int
	classCount [2]float64
	total      float64
	// marg[c][i][v] counts instances with class c and attribute i = v.
	marg [2][][]float64
	// pair[c][pairIdx(i,j)][vi*bins[j]+vj] counts instances with class
	// c, attribute i = vi and attribute j = vj, for i < j.
	pair [2][][]float64
	// pairBase[i] is the index of pair (i, i+1), precomputed so
	// pairIdx is arithmetic-free on the hot path.
	pairBase []int
}

// NewCountTable builds an empty table for the given per-attribute bin
// counts.
func NewCountTable(bins []int) (*CountTable, error) {
	if len(bins) == 0 {
		return nil, fmt.Errorf("bayes: bins must be non-empty")
	}
	for i, b := range bins {
		if b < 1 {
			return nil, fmt.Errorf("bayes: attribute %d has %d bins, want >= 1", i, b)
		}
	}
	n := len(bins)
	t := &CountTable{
		bins:     append([]int(nil), bins...),
		pairBase: make([]int, n),
	}
	pairs := 0
	for i := 0; i < n; i++ {
		t.pairBase[i] = pairs
		pairs += n - i - 1
	}
	for c := 0; c < 2; c++ {
		t.marg[c] = make([][]float64, n)
		for i := 0; i < n; i++ {
			t.marg[c][i] = make([]float64, bins[i])
		}
		t.pair[c] = make([][]float64, pairs)
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				t.pair[c][k] = make([]float64, bins[i]*bins[j])
				k++
			}
		}
	}
	return t, nil
}

// pairIdx returns the flat index of pair (i, j) with i < j.
func (t *CountTable) pairIdx(i, j int) int {
	return t.pairBase[i] + j - i - 1
}

// NumAttributes returns the number of attributes.
func (t *CountTable) NumAttributes() int { return len(t.bins) }

// Bins returns a copy of the per-attribute bin counts.
func (t *CountTable) Bins() []int { return append([]int(nil), t.bins...) }

// Total returns the number of counted instances.
func (t *CountTable) Total() float64 { return t.total }

// ClassCount returns the number of counted instances of the class.
func (t *CountTable) ClassCount(abnormal bool) float64 {
	return t.classCount[classIdx(abnormal)]
}

// checkBins validates one instance's attribute values.
func (t *CountTable) checkBins(bins []int) error {
	if len(bins) != len(t.bins) {
		return fmt.Errorf("%w: got %d attrs, want %d", ErrShape, len(bins), len(t.bins))
	}
	for i, v := range bins {
		if v < 0 || v >= t.bins[i] {
			return fmt.Errorf("%w: attr %d value %d not in [0,%d)", ErrShape, i, v, t.bins[i])
		}
	}
	return nil
}

// Add counts one instance. O(attrs²) — constant in the number of
// instances counted so far.
func (t *CountTable) Add(bins []int, abnormal bool) error {
	if err := t.checkBins(bins); err != nil {
		return err
	}
	t.add(bins, abnormal, 1)
	return nil
}

// Remove un-counts one previously added instance. Counts are exact
// integers, so removal restores the table to its pre-Add state
// bit-for-bit. Removing an instance that was never added corrupts the
// table; callers own that bookkeeping.
func (t *CountTable) Remove(bins []int, abnormal bool) error {
	if err := t.checkBins(bins); err != nil {
		return err
	}
	t.add(bins, abnormal, -1)
	return nil
}

// Relabel moves one previously counted instance to the other class:
// Remove under the old label, Add under the new. Used by the
// relabel-aware streaming trainer when look-ahead relabeling flips a
// recent row's label after the fact.
func (t *CountTable) Relabel(bins []int, toAbnormal bool) error {
	if err := t.checkBins(bins); err != nil {
		return err
	}
	t.add(bins, !toAbnormal, -1)
	t.add(bins, toAbnormal, 1)
	return nil
}

func (t *CountTable) add(bins []int, abnormal bool, delta float64) {
	c := classIdx(abnormal)
	t.classCount[c] += delta
	t.total += delta
	marg := t.marg[c]
	pair := t.pair[c]
	n := len(bins)
	for i := 0; i < n; i++ {
		vi := bins[i]
		marg[i][vi] += delta
		base := t.pairBase[i]
		for j := i + 1; j < n; j++ {
			pair[base+j-i-1][vi*t.bins[j]+bins[j]] += delta
		}
	}
}

// Clone returns an independent deep copy.
func (t *CountTable) Clone() *CountTable {
	cp, _ := NewCountTable(t.bins)
	cp.classCount = t.classCount
	cp.total = t.total
	for c := 0; c < 2; c++ {
		for i := range t.marg[c] {
			copy(cp.marg[c][i], t.marg[c][i])
		}
		for k := range t.pair[c] {
			copy(cp.pair[c][k], t.pair[c][k])
		}
	}
	return cp
}

// FoldAbnormal returns a copy with every abnormal count merged into
// the normal class — the count-table form of relabeling every
// abnormal instance normal (bit-identical to recounting, since counts
// are exact integers). The streaming trainer applies it at retrain
// time when the abnormal class lacks minimum support, without
// destroying the accumulated statistics.
func (t *CountTable) FoldAbnormal() *CountTable {
	cp := t.Clone()
	cp.classCount[0] += cp.classCount[1]
	cp.classCount[1] = 0
	for i := range cp.marg[0] {
		for v := range cp.marg[0][i] {
			cp.marg[0][i][v] += cp.marg[1][i][v]
			cp.marg[1][i][v] = 0
		}
	}
	for k := range cp.pair[0] {
		for v := range cp.pair[0][k] {
			cp.pair[0][k][v] += cp.pair[1][k][v]
			cp.pair[1][k][v] = 0
		}
	}
	return cp
}

// cmi estimates I(A_i; A_j | C) with Laplace smoothing from the count
// tables — the same expression conditionalMutualInfo evaluates over
// raw instances, applied to identical counts, so the result is
// bit-identical.
func (t *CountTable) cmi(i, j int) float64 {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	return cmiFromCounts(
		t.bins[lo], t.bins[hi],
		[2][]float64{t.pair[0][t.pairIdx(lo, hi)], t.pair[1][t.pairIdx(lo, hi)]},
		[2][]float64{t.marg[0][lo], t.marg[1][lo]},
		[2][]float64{t.marg[0][hi], t.marg[1][hi]},
		t.classCount,
	)
}

// TrainFromCounts builds a TAN (or naive Bayes) model from accumulated
// sufficient statistics in O(attrs² · bins²), independent of how many
// instances the table has counted. A table populated from the same
// effective instances as a batch Train call yields a bit-identical
// model (same tree parents, same CPT values).
func TrainFromCounts(t *CountTable, opts Options) (*Model, error) {
	m := &Model{}
	if err := m.RefitFromCounts(t, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// RefitFromCounts fits the model to the table in place: the tree, the
// CPTs and the class prior all become what TrainFromCounts would build
// from the same table, in the storage the model already owns, so
// refitting allocates nothing. A LogRatios table built from the model
// goes stale (LogRatios.Refresh refills it). On error the model is
// untouched and keeps scoring as before.
func (m *Model) RefitFromCounts(t *CountTable, opts Options) error {
	start := trainHook.Start()
	defer trainHook.Done(start)
	return m.refit(t, opts)
}

// refit is the unhooked fit shared by Train, TrainFromCounts and
// RefitFromCounts (so a batch Train records exactly one training in
// telemetry, not two). A zero Model takes its shape from the table;
// after that the shape is fixed.
func (m *Model) refit(t *CountTable, opts Options) error {
	if t == nil || t.total <= 0 {
		return ErrNoInstances
	}
	if m.numAttrs == 0 {
		m.initShape(t.bins)
	} else if !slices.Equal(m.bins, t.bins) {
		return fmt.Errorf("%w: count table bins %v, model bins %v", ErrShape, t.bins, m.bins)
	}
	n := m.numAttrs
	if opts.Naive || n == 1 {
		for i := range m.parent {
			m.parent[i] = -1
		}
	} else {
		m.buildTree(t)
	}
	m.carveCPTs()
	for i := 0; i < n; i++ {
		p := m.parent[i]
		for c := 0; c < 2; c++ {
			if p < 0 {
				copy(m.cpt[i][c][0], t.marg[c][i])
				continue
			}
			// The joint table stores (lower index varies first); read it
			// out as [parentValue][attrValue].
			if p < i {
				jc := t.pair[c][t.pairIdx(p, i)]
				for u := 0; u < t.bins[p]; u++ {
					copy(m.cpt[i][c][u], jc[u*t.bins[i]:(u+1)*t.bins[i]])
				}
			} else {
				jc := t.pair[c][t.pairIdx(i, p)]
				for u := 0; u < t.bins[p]; u++ {
					row := m.cpt[i][c][u]
					for v := 0; v < t.bins[i]; v++ {
						row[v] = jc[v*t.bins[p]+u]
					}
				}
			}
		}
	}
	m.normalizeCPTs()
	m.classCount, m.total = t.classCount, t.total
	m.gen++
	return nil
}

// CountSnapshot is a serializable dump of a CountTable, persisted
// alongside trained predictors so a restored model keeps retraining
// incrementally from where it left off.
type CountSnapshot struct {
	Bins  []int          `json:"bins"`
	Class [2]float64     `json:"class"`
	Total float64        `json:"total"`
	Marg  [2][][]float64 `json:"marg"`
	Pair  [2][][]float64 `json:"pair"`
}

// Snapshot exports the table state.
func (t *CountTable) Snapshot() CountSnapshot {
	s := CountSnapshot{
		Bins:  append([]int(nil), t.bins...),
		Class: t.classCount,
		Total: t.total,
	}
	for c := 0; c < 2; c++ {
		s.Marg[c] = make([][]float64, len(t.marg[c]))
		for i, row := range t.marg[c] {
			s.Marg[c][i] = append([]float64(nil), row...)
		}
		s.Pair[c] = make([][]float64, len(t.pair[c]))
		for k, row := range t.pair[c] {
			s.Pair[c][k] = append([]float64(nil), row...)
		}
	}
	return s
}

// CountTableFromSnapshot reconstructs a CountTable.
func CountTableFromSnapshot(s CountSnapshot) (*CountTable, error) {
	t, err := NewCountTable(s.Bins)
	if err != nil {
		return nil, fmt.Errorf("bayes: count snapshot: %w", err)
	}
	if s.Total < 0 || s.Class[0] < 0 || s.Class[1] < 0 {
		return nil, fmt.Errorf("bayes: count snapshot has negative counts")
	}
	t.classCount = s.Class
	t.total = s.Total
	for c := 0; c < 2; c++ {
		if len(s.Marg[c]) != len(t.marg[c]) || len(s.Pair[c]) != len(t.pair[c]) {
			return nil, fmt.Errorf("bayes: count snapshot shape mismatch for class %d", c)
		}
		for i, row := range s.Marg[c] {
			if len(row) != len(t.marg[c][i]) {
				return nil, fmt.Errorf("bayes: count snapshot marg[%d][%d] has %d cells, want %d",
					c, i, len(row), len(t.marg[c][i]))
			}
			copy(t.marg[c][i], row)
		}
		for k, row := range s.Pair[c] {
			if len(row) != len(t.pair[c][k]) {
				return nil, fmt.Errorf("bayes: count snapshot pair[%d][%d] has %d cells, want %d",
					c, k, len(row), len(t.pair[c][k]))
			}
			copy(t.pair[c][k], row)
		}
	}
	return t, nil
}
