package bayes

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"prepare/internal/binenc"
)

// ErrCountRange is returned by a count table update that would take a
// count past maxCount or below zero, and by a count snapshot holding a
// count that no sequence of updates can produce. A refused update
// leaves the table as it was.
var ErrCountRange = errors.New("bayes: count out of range")

// maxCount bounds the number of instances a table counts. Every cell is
// at most its class count, and the class counts sum to the total, so
// all of them fit a uint32 and convert to float64 exactly.
const maxCount = math.MaxUint32

// CountTable holds the sufficient statistics of TAN training: the
// class counts, the class-conditional single-attribute value counts,
// and the class-conditional pairwise joint value counts for every
// attribute pair. Everything the Chow-Liu tree (conditional mutual
// information) and the CPTs need is a pure function of these tables,
// so a model can be (re)built from a CountTable in O(attrs² · bins²)
// regardless of how many instances produced it — the core of the
// incremental O(1)-per-sample training path.
//
// Counts are whole numbers stored as uint32s (at most maxCount
// instances), and Add/Remove apply ±1 per cell, so a table built by
// streaming updates is bit-identical to one built from the equivalent
// batch of instances; TrainFromCounts then evaluates the same
// expressions as the batch trainer over the counts converted to
// float64 (exactly), making batch and incremental models provably —
// and in practice bitwise — equal.
//
// Memory is 2·(Σ_i b_i + Σ_{i<j} b_i·b_j) uint32s in one block: with
// the paper's 13 attributes × 8 bins, 2·(104 + 78·64) ≈ 10 200 cells
// ≈ 40 KB per VM, independent of history length.
type CountTable struct {
	bins       []int
	classCount [2]uint32
	total      uint32
	// marg[c][i][v] counts instances with class c and attribute i = v.
	marg [2][][]uint32
	// pair[c][pairIdx(i,j)][vi*bins[j]+vj] counts instances with class
	// c, attribute i = vi and attribute j = vj, for i < j.
	pair [2][][]uint32
	// cells is the block every marg and pair row is carved from, class
	// 0's rows in its first half and class 1's, in the same order, in
	// its second.
	cells []uint32
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
	pairs, cells := 0, 0
	for i := 0; i < n; i++ {
		t.pairBase[i] = pairs
		pairs += n - i - 1
		cells += bins[i]
		for j := i + 1; j < n; j++ {
			cells += bins[i] * bins[j]
		}
	}
	headers := make([][]uint32, 2*(n+pairs))
	t.cells = make([]uint32, 2*cells)
	store := t.cells
	carve := func(w int) []uint32 {
		row := store[:w:w]
		store = store[w:]
		return row
	}
	for c := 0; c < 2; c++ {
		t.marg[c], headers = headers[:n:n], headers[n:]
		for i := 0; i < n; i++ {
			t.marg[c][i] = carve(bins[i])
		}
		t.pair[c], headers = headers[:pairs:pairs], headers[pairs:]
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				t.pair[c][k] = carve(bins[i] * bins[j])
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

// Total returns the number of counted instances.
func (t *CountTable) Total() float64 { return float64(t.total) }

// ClassCount returns the number of counted instances of the class.
func (t *CountTable) ClassCount(abnormal bool) float64 {
	return float64(t.classCount[classIdx(abnormal)])
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
// instances counted so far. A table already holding maxCount instances
// refuses it with ErrCountRange.
func (t *CountTable) Add(bins []int, abnormal bool) error {
	if err := t.checkBins(bins); err != nil {
		return err
	}
	if t.total == maxCount {
		return fmt.Errorf("%w: table already counts %d instances", ErrCountRange, t.total)
	}
	t.add(bins, classIdx(abnormal))
	return nil
}

// Relabel moves one previously counted instance to the other class:
// Remove under the old label, Add under the new. Used by the
// relabel-aware streaming trainer when look-ahead relabeling flips a
// recent row's label after the fact. It is refused, like Remove, when
// the instance cannot be counted under the old label.
func (t *CountTable) Relabel(bins []int, toAbnormal bool) error {
	if err := t.checkBins(bins); err != nil {
		return err
	}
	from := classIdx(!toAbnormal)
	if err := t.checkRemovable(bins, from); err != nil {
		return err
	}
	t.remove(bins, from)
	t.add(bins, 1-from)
	return nil
}

// add counts one instance in class c. The caller has checked that the
// total is below maxCount, which bounds every count add touches.
func (t *CountTable) add(bins []int, c int) {
	t.classCount[c]++
	t.total++
	marg := t.marg[c]
	pair := t.pair[c]
	n := len(bins)
	for i := 0; i < n; i++ {
		vi := bins[i]
		marg[i][vi]++
		base := t.pairBase[i]
		for j := i + 1; j < n; j++ {
			pair[base+j-i-1][vi*t.bins[j]+bins[j]]++
		}
	}
}

// checkRemovable reports ErrCountRange if un-counting the instance from
// class c would take any of its counts below zero.
func (t *CountTable) checkRemovable(bins []int, c int) error {
	if t.classCount[c] == 0 {
		return fmt.Errorf("%w: class %d has no instances to remove", ErrCountRange, c)
	}
	marg := t.marg[c]
	pair := t.pair[c]
	n := len(bins)
	for i := 0; i < n; i++ {
		vi := bins[i]
		if marg[i][vi] == 0 {
			return fmt.Errorf("%w: class %d never counted attribute %d = %d", ErrCountRange, c, i, vi)
		}
		base := t.pairBase[i]
		for j := i + 1; j < n; j++ {
			if pair[base+j-i-1][vi*t.bins[j]+bins[j]] == 0 {
				return fmt.Errorf("%w: class %d never counted attributes %d, %d = %d, %d", ErrCountRange, c, i, j, vi, bins[j])
			}
		}
	}
	return nil
}

// remove un-counts one instance from class c, which checkRemovable has
// passed.
func (t *CountTable) remove(bins []int, c int) {
	t.classCount[c]--
	t.total--
	marg := t.marg[c]
	pair := t.pair[c]
	n := len(bins)
	for i := 0; i < n; i++ {
		vi := bins[i]
		marg[i][vi]--
		base := t.pairBase[i]
		for j := i + 1; j < n; j++ {
			pair[base+j-i-1][vi*t.bins[j]+bins[j]]--
		}
	}
}

// Clone returns an independent deep copy.
func (t *CountTable) Clone() *CountTable {
	cp, _ := NewCountTable(t.bins)
	cp.classCount = t.classCount
	cp.total = t.total
	copy(cp.cells, t.cells)
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
	normal, abnormal := cp.cells[:len(cp.cells)/2], cp.cells[len(cp.cells)/2:]
	for k, n := range abnormal {
		normal[k] += n
		abnormal[k] = 0
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
		[2][]uint32{t.pair[0][t.pairIdx(lo, hi)], t.pair[1][t.pairIdx(lo, hi)]},
		[2][]uint32{t.marg[0][lo], t.marg[1][lo]},
		[2][]uint32{t.marg[0][hi], t.marg[1][hi]},
		t.classCount,
	)
}

// TrainFromCounts builds a TAN (or naive Bayes) model from accumulated
// sufficient statistics in O(attrs² · bins²), independent of how many
// instances the table has counted. Every count converts to float64
// exactly, so tables holding the same counts yield bit-identical models
// (same tree parents, same CPT values), however the counts were
// accumulated.
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
// untouched and keeps scoring as before. A zero Model takes its shape
// from the table; after that the shape is fixed.
func (m *Model) RefitFromCounts(t *CountTable, opts Options) error {
	start := trainHook.Start()
	defer trainHook.Done(start)
	if t == nil || t.total == 0 {
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
				copyCounts(m.cpt[i][c][0], t.marg[c][i])
				continue
			}
			// The joint table stores (lower index varies first); read it
			// out as [parentValue][attrValue].
			if p < i {
				jc := t.pair[c][t.pairIdx(p, i)]
				for u := 0; u < t.bins[p]; u++ {
					copyCounts(m.cpt[i][c][u], jc[u*t.bins[i]:(u+1)*t.bins[i]])
				}
			} else {
				jc := t.pair[c][t.pairIdx(i, p)]
				for u := 0; u < t.bins[p]; u++ {
					row := m.cpt[i][c][u]
					for v := 0; v < t.bins[i]; v++ {
						row[v] = float64(jc[v*t.bins[p]+u])
					}
				}
			}
		}
	}
	m.normalizeCPTs()
	m.classCount = [2]float64{float64(t.classCount[0]), float64(t.classCount[1])}
	m.total = float64(t.total)
	m.gen++
	return nil
}

// copyCounts writes counts into dst as float64s, which is exact.
func copyCounts(dst []float64, counts []uint32) {
	for v, n := range counts {
		dst[v] = float64(n)
	}
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

// SnapshotInto exports the table state into s, reusing its rows where
// they already have the table's shape.
func (t *CountTable) SnapshotInto(s *CountSnapshot) {
	s.Bins = append(s.Bins[:0], t.bins...)
	s.Class = [2]float64{float64(t.classCount[0]), float64(t.classCount[1])}
	s.Total = float64(t.total)
	for c := 0; c < 2; c++ {
		s.Marg[c] = shapedLike(s.Marg[c], t.marg[c])
		s.Pair[c] = shapedLike(s.Pair[c], t.pair[c])
		for i, row := range t.marg[c] {
			copyCounts(s.Marg[c][i], row)
		}
		for k, row := range t.pair[c] {
			copyCounts(s.Pair[c][k], row)
		}
	}
}

// Encode appends the snapshot in the binary checkpoint encoding: the
// bins, then the class counts and total as one count block, then per
// class the attribute tables and the pair tables as one count block
// each.
func (s *CountSnapshot) Encode(e *binenc.Encoder) {
	e.Ints(s.Bins)
	e.Counts([][]float64{{s.Class[0], s.Class[1], s.Total}})
	for c := 0; c < 2; c++ {
		e.Counts(s.Marg[c])
		e.Counts(s.Pair[c])
	}
}

// Decode reads a snapshot Encode appended, cutting each class's count
// blocks into the tables the bins call for. It checks only what that
// needs; CountTableFromSnapshot checks the rest.
func (s *CountSnapshot) Decode(d *binenc.Decoder) {
	s.Bins = d.Ints()
	head := d.Counts()
	if d.Err() != nil {
		return
	}
	if len(head) != 3 {
		d.Fail(fmt.Errorf("bayes: count snapshot head has %d counts, want 3", len(head)))
		return
	}
	s.Class, s.Total = [2]float64{head[0], head[1]}, head[2]
	n := len(s.Bins)
	for c := 0; c < 2; c++ {
		marg, pair := d.Counts(), d.Counts()
		if d.Err() != nil {
			return
		}
		s.Marg[c] = make([][]float64, n)
		for i, bi := range s.Bins {
			if bi < 1 || bi > len(marg) {
				d.Fail(fmt.Errorf("bayes: count snapshot marg[%d][%d] of %d cells does not fit its %d cells", c, i, bi, len(marg)))
				return
			}
			s.Marg[c][i], marg = marg[:bi:bi], marg[bi:]
		}
		s.Pair[c] = nil
		for i, bi := range s.Bins {
			for _, bj := range s.Bins[i+1:] {
				// Every bin is at least 1, so a pair width over the
				// cells that remain is refused before it is formed.
				if bj > len(pair)/bi {
					d.Fail(fmt.Errorf("bayes: count snapshot pair tables of class %d do not fit their %d cells", c, len(pair)))
					return
				}
				w := bi * bj
				s.Pair[c], pair = append(s.Pair[c], pair[:w:w]), pair[w:]
			}
		}
		if len(marg) != 0 || len(pair) != 0 {
			d.Fail(fmt.Errorf("bayes: count snapshot class %d has %d cells beyond its tables", c, len(marg)+len(pair)))
			return
		}
	}
}

// CountTableFromSnapshot reconstructs a CountTable. It refuses, with
// ErrCountRange, a snapshot holding any count that is not a whole
// number in [0, 2^32-1], or counts no sequence of Add, Remove and
// Relabel calls can produce: class counts that do not sum to the total,
// or an attribute or attribute-pair table whose cells do not sum to
// their class count.
func CountTableFromSnapshot(s CountSnapshot) (*CountTable, error) {
	t, err := NewCountTable(s.Bins)
	if err != nil {
		return nil, fmt.Errorf("bayes: count snapshot: %w", err)
	}
	var class [2]uint32
	for c := 0; c < 2; c++ {
		if class[c], err = snapshotCount(s.Class[c], "class"); err != nil {
			return nil, err
		}
	}
	total, err := snapshotCount(s.Total, "total")
	if err != nil {
		return nil, err
	}
	if uint64(class[0])+uint64(class[1]) != uint64(total) {
		return nil, fmt.Errorf("%w: count snapshot class counts %d + %d, total %d", ErrCountRange, class[0], class[1], total)
	}
	t.classCount, t.total = class, total
	for c := 0; c < 2; c++ {
		if len(s.Marg[c]) != len(t.marg[c]) || len(s.Pair[c]) != len(t.pair[c]) {
			return nil, fmt.Errorf("bayes: count snapshot shape mismatch for class %d", c)
		}
		for _, tbl := range []struct {
			name string
			src  [][]float64
			dst  [][]uint32
		}{{"marg", s.Marg[c], t.marg[c]}, {"pair", s.Pair[c], t.pair[c]}} {
			for k, row := range tbl.src {
				if len(row) != len(tbl.dst[k]) {
					return nil, fmt.Errorf("bayes: count snapshot %s[%d][%d] has %d cells, want %d",
						tbl.name, c, k, len(row), len(tbl.dst[k]))
				}
				sum := uint64(0)
				for v, x := range row {
					n, err := snapshotCount(x, tbl.name)
					if err != nil {
						return nil, err
					}
					tbl.dst[k][v] = n
					sum += uint64(n)
				}
				if sum != uint64(class[c]) {
					return nil, fmt.Errorf("%w: count snapshot %s[%d][%d] sums to %d, class count %d",
						ErrCountRange, tbl.name, c, k, sum, class[c])
				}
			}
		}
	}
	return t, nil
}

// snapshotCount converts one snapshot count, refusing anything that is
// not a whole number in [0, maxCount].
func snapshotCount(x float64, what string) (uint32, error) {
	if !(x >= 0 && x <= maxCount && x == math.Trunc(x)) {
		return 0, fmt.Errorf("%w: count snapshot %s count %v is not a whole number in [0, %d]", ErrCountRange, what, x, uint32(maxCount))
	}
	return uint32(x), nil
}
