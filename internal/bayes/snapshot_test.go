package bayes

import (
	"math"
	"testing"
)

func trainedModel(t *testing.T) *Model {
	t.Helper()
	instances, bins := synthData(300, 21)
	m, err := train(instances, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelSnapshotRoundTrip(t *testing.T) {
	m := trainedModel(t)
	restored, err := FromSnapshot(modelSnapshot(m))
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumAttributes() != m.NumAttributes() {
		t.Fatalf("attrs = %d, want %d", restored.NumAttributes(), m.NumAttributes())
	}
	if math.Abs(restored.ClassPrior()-m.ClassPrior()) > 1e-12 {
		t.Errorf("prior %g vs %g", restored.ClassPrior(), m.ClassPrior())
	}
	for _, obs := range [][]int{{0, 0, 0}, {3, 3, 1}, {2, 1, 3}} {
		a, err := m.Score(obs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Score(obs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("Score(%v): %g vs %g", obs, a, b)
		}
	}
	// Parents preserved.
	p1, p2 := m.parent, restored.parent
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("parent[%d] = %d vs %d", i, p1[i], p2[i])
		}
	}
}

func TestModelSnapshotIsACopy(t *testing.T) {
	m := trainedModel(t)
	snap := modelSnapshot(m)
	snap.CPT[0][0][0][0] = 0.123456
	if m.cpt[0][0][0][0] == 0.123456 {
		t.Error("snapshot shares memory with the model")
	}
}

func TestBayesFromSnapshotValidation(t *testing.T) {
	m := trainedModel(t)
	cases := map[string]func() Snapshot{
		"no attrs": func() Snapshot { s := modelSnapshot(m); s.Bins = nil; return s },
		"shape":    func() Snapshot { s := modelSnapshot(m); s.Parent = s.Parent[:1]; return s },
		"total":    func() Snapshot { s := modelSnapshot(m); s.Total = 0; return s },
		"bad bins": func() Snapshot { s := modelSnapshot(m); s.Bins[0] = 0; return s },
		"self parent": func() Snapshot {
			s := modelSnapshot(m)
			for i := range s.Parent {
				s.Parent[i] = i
			}
			return s
		},
		"bad prob": func() Snapshot {
			s := modelSnapshot(m)
			s.CPT[0][0][0][0] = 1.5
			return s
		},
		"zero prob": func() Snapshot {
			s := modelSnapshot(m)
			s.CPT[0][1][0][0] = 0
			return s
		},
		"nan prob": func() Snapshot {
			s := modelSnapshot(m)
			s.CPT[1][0][0][0] = math.NaN()
			return s
		},
		"nan total": func() Snapshot { s := modelSnapshot(m); s.Total = math.NaN(); return s },
		// Each class-count case keeps c0 + c1 == Total, so only the
		// count itself is wrong.
		"negative class count": func() Snapshot {
			s := modelSnapshot(m)
			s.ClassCount, s.Total = [2]float64{-5, 10}, 5
			return s
		},
		"fractional class count": func() Snapshot {
			s := modelSnapshot(m)
			s.ClassCount, s.Total = [2]float64{2.5, 1.5}, 4
			return s
		},
		"nan class count": func() Snapshot {
			s := modelSnapshot(m)
			s.ClassCount[1] = math.NaN()
			return s
		},
		"infinite class count": func() Snapshot {
			s := modelSnapshot(m)
			s.ClassCount, s.Total = [2]float64{math.Inf(1), 1}, math.Inf(1)
			return s
		},
		"counts disagree with total": func() Snapshot {
			s := modelSnapshot(m)
			s.Total++
			return s
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := FromSnapshot(mk()); err == nil {
				t.Error("invalid snapshot should load with an error")
			}
		})
	}
}
