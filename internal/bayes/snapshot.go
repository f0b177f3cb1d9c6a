package bayes

import (
	"fmt"
	"math"

	"prepare/internal/binenc"
)

// Snapshot is a serializable dump of a trained model.
type Snapshot struct {
	Bins   []int `json:"bins"`
	Parent []int `json:"parent"`
	// CPT[i][c] is the [parentBins][attrBins] table for attribute i and
	// class c.
	CPT        [][2][][]float64 `json:"cpt"`
	ClassCount [2]float64       `json:"classCount"`
	Total      float64          `json:"total"`
}

// SnapshotInto exports the trained model state into s, reusing its
// slices where they already have the shape the state needs.
func (m *Model) SnapshotInto(s *Snapshot) {
	s.Bins = append(s.Bins[:0], m.bins...)
	s.Parent = append(s.Parent[:0], m.parent...)
	s.ClassCount, s.Total = m.classCount, m.total
	if s.CPT == nil || len(s.CPT) != m.numAttrs {
		s.CPT = make([][2][][]float64, m.numAttrs)
	}
	for i := range m.cpt {
		for c := 0; c < 2; c++ {
			s.CPT[i][c] = shapedLike(s.CPT[i][c], m.cpt[i][c])
			for u, row := range m.cpt[i][c] {
				copy(s.CPT[i][c][u], row)
			}
		}
	}
}

// shapedLike returns rows if its rows already have src's lengths, else
// new rows of those lengths carved from one block. It never returns
// nil, so an empty table exports as [], not null.
func shapedLike[T any](rows [][]float64, src [][]T) [][]float64 {
	same := rows != nil && len(rows) == len(src)
	cells := 0
	for u, row := range src {
		cells += len(row)
		same = same && len(rows[u]) == len(row)
	}
	if same {
		return rows
	}
	rows = make([][]float64, len(src))
	flat := make([]float64, cells)
	for u, row := range src {
		rows[u], flat = flat[:len(row):len(row)], flat[len(row):]
	}
	return rows
}

// Encode appends the snapshot in the binary checkpoint encoding: bins
// and parents, the class counts and total as raw float64 bits, then
// every CPT cell, attribute by attribute and class by class, as one
// float list.
func (s *Snapshot) Encode(e *binenc.Encoder) {
	e.Ints(s.Bins)
	e.Ints(s.Parent)
	e.Float64(s.ClassCount[0])
	e.Float64(s.ClassCount[1])
	e.Float64(s.Total)
	cells := 0
	for i := range s.CPT {
		for c := 0; c < 2; c++ {
			for _, row := range s.CPT[i][c] {
				cells += len(row)
			}
		}
	}
	e.Uvarint(uint64(cells))
	for i := range s.CPT {
		for c := 0; c < 2; c++ {
			for _, row := range s.CPT[i][c] {
				for _, v := range row {
					e.Float64(v)
				}
			}
		}
	}
}

// Decode reads a snapshot Encode appended, cutting the CPT cells into
// the tables bins and parents call for. It checks only what that needs;
// FromSnapshot checks the rest.
func (s *Snapshot) Decode(d *binenc.Decoder) {
	s.Bins, s.Parent = d.Ints(), d.Ints()
	s.ClassCount[0], s.ClassCount[1], s.Total = d.Float64(), d.Float64(), d.Float64()
	flat := d.Floats()
	if d.Err() != nil {
		return
	}
	n := len(s.Bins)
	if len(s.Parent) != n {
		d.Fail(fmt.Errorf("bayes: snapshot shape mismatch (%d bins, %d parents)", n, len(s.Parent)))
		return
	}
	s.CPT = make([][2][][]float64, n)
	for i, bi := range s.Bins {
		pb := 1
		if p := s.Parent[i]; p >= 0 && p < n {
			pb = s.Bins[p]
		} else if p != -1 {
			d.Fail(fmt.Errorf("bayes: snapshot attribute %d has invalid parent %d", i, p))
			return
		}
		for c := 0; c < 2; c++ {
			var ok bool
			if s.CPT[i][c], flat, ok = carveRows(flat, pb, bi); !ok {
				d.Fail(fmt.Errorf("bayes: snapshot cpt[%d][%d] of %d rows of %d cells does not fit its %d cells", i, c, pb, bi, len(flat)))
				return
			}
		}
	}
	if len(flat) != 0 {
		d.Fail(fmt.Errorf("bayes: snapshot has %d cpt cells beyond its tables", len(flat)))
	}
}

// carveRows cuts n rows of w cells off the front of flat and returns
// them with the rest, or ok false when n or w is not positive or flat
// is too short.
func carveRows(flat []float64, n, w int) (rows [][]float64, rest []float64, ok bool) {
	if n < 1 || w < 1 || n > len(flat)/w {
		return nil, flat, false
	}
	rows = make([][]float64, n)
	for u := range rows {
		rows[u], flat = flat[:w:w], flat[w:]
	}
	return rows, flat, true
}

// FromSnapshot reconstructs a trained model.
func FromSnapshot(s Snapshot) (*Model, error) {
	n := len(s.Bins)
	if n == 0 {
		return nil, fmt.Errorf("bayes: snapshot has no attributes")
	}
	if len(s.Parent) != n || len(s.CPT) != n {
		return nil, fmt.Errorf("bayes: snapshot shape mismatch (%d bins, %d parents, %d cpts)",
			n, len(s.Parent), len(s.CPT))
	}
	// The class counts are whole numbers that add up to the total, so
	// the class prior is finite. A NaN total or count fails every
	// comparison below, which is why they are written to pass only on
	// good values.
	if !(s.Total > 0) {
		return nil, fmt.Errorf("bayes: snapshot total %g invalid", s.Total)
	}
	for c, cnt := range s.ClassCount {
		if !(cnt >= 0) || math.IsInf(cnt, 1) || cnt != math.Trunc(cnt) {
			return nil, fmt.Errorf("bayes: snapshot class %d count %g is not a whole number >= 0", c, cnt)
		}
	}
	if sum := s.ClassCount[0] + s.ClassCount[1]; sum != s.Total {
		return nil, fmt.Errorf("bayes: snapshot class counts add up to %g, total is %g", sum, s.Total)
	}
	// Check every dimension before sizing storage from them, so a
	// document that lies about its bins cannot ask for more memory than
	// the tables it actually carries.
	for i := 0; i < n; i++ {
		if s.Bins[i] < 1 {
			return nil, fmt.Errorf("bayes: snapshot attribute %d has %d bins", i, s.Bins[i])
		}
		p := s.Parent[i]
		if p < -1 || p >= n || p == i {
			return nil, fmt.Errorf("bayes: snapshot attribute %d has invalid parent %d", i, p)
		}
		wantParentBins := 1
		if p >= 0 {
			wantParentBins = s.Bins[p]
		}
		for c := 0; c < 2; c++ {
			if len(s.CPT[i][c]) != wantParentBins {
				return nil, fmt.Errorf("bayes: snapshot cpt[%d][%d] has %d parent rows, want %d",
					i, c, len(s.CPT[i][c]), wantParentBins)
			}
			for u, row := range s.CPT[i][c] {
				if len(row) != s.Bins[i] {
					return nil, fmt.Errorf("bayes: snapshot cpt[%d][%d][%d] has %d cols, want %d",
						i, c, u, len(row), s.Bins[i])
				}
				for _, v := range row {
					if !(v > 0 && v <= 1) {
						return nil, fmt.Errorf("bayes: snapshot cpt[%d][%d][%d] probability %g out of (0,1]", i, c, u, v)
					}
				}
			}
		}
	}
	m := &Model{classCount: s.ClassCount, total: s.Total}
	m.initShape(s.Bins)
	copy(m.parent, s.Parent)
	m.carveCPTs()
	for i := range m.cpt {
		for c := 0; c < 2; c++ {
			for u, row := range s.CPT[i][c] {
				copy(m.cpt[i][c][u], row)
			}
		}
	}
	return m, nil
}
