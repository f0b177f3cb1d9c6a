package bayes

import (
	"fmt"
	"math"
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

// Snapshot exports the trained model state.
func (m *Model) Snapshot() Snapshot {
	s := Snapshot{
		Bins:       append([]int(nil), m.bins...),
		Parent:     append([]int(nil), m.parent...),
		ClassCount: m.classCount,
		Total:      m.total,
	}
	s.CPT = make([][2][][]float64, m.numAttrs)
	for i := range m.cpt {
		for c := 0; c < 2; c++ {
			tables := make([][]float64, len(m.cpt[i][c]))
			for u, row := range m.cpt[i][c] {
				tables[u] = append([]float64(nil), row...)
			}
			s.CPT[i][c] = tables
		}
	}
	return s
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
