package bayes

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// dependentInstances draws n instances in which attribute j copies
// attribute src[j] nine times in ten (src[j] < j; attribute 0 is free),
// so the Chow-Liu tree follows src.
func dependentInstances(rng *rand.Rand, bins, src []int, n int) []instance {
	out := make([]instance, n)
	for k := range out {
		b := make([]int, len(bins))
		for j := range b {
			b[j] = rng.Intn(bins[j])
			if j > 0 && rng.Intn(10) > 0 {
				b[j] = b[src[j]] % bins[j]
			}
		}
		out[k] = instance{Bins: b, Abnormal: rng.Intn(4) == 0}
	}
	return out
}

// TestRefitMatchesFreshTrain evolves 50 random count tables through a
// sliding window of instances whose dependency structure is redrawn
// every round, so the tree changes between refits (asserted), and
// requires the model refitted in place to equal a freshly trained one
// exactly, and the refreshed log-ratio table to score bit-identically
// to MarginalScore. Uneven bin counts make the CPT layout move with the
// tree; every few rounds a naive refit collapses it and the next
// rebuilds it.
func TestRefitMatchesFreshTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	treeChanges := 0
	for evolution := 0; evolution < 50; evolution++ {
		bins := []int{8, 8, 8, 8, 8, 8}
		if evolution%2 == 1 {
			bins = []int{3, 8, 5, 2, 6, 4}
		}
		ct, err := NewCountTable(bins)
		if err != nil {
			t.Fatal(err)
		}
		m := &Model{}
		var lr *LogRatios
		var window [][]instance
		var prevParents []int
		for round := 0; round < 8; round++ {
			src := make([]int, len(bins))
			for j := 1; j < len(src); j++ {
				src[j] = rng.Intn(j)
			}
			batch := dependentInstances(rng, bins, src, 300)
			for _, inst := range batch {
				if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
					t.Fatal(err)
				}
			}
			if window = append(window, batch); len(window) > 2 {
				for _, inst := range window[0] {
					if err := ct.Remove(inst.Bins, inst.Abnormal); err != nil {
						t.Fatal(err)
					}
				}
				window = window[1:]
			}
			opts := Options{Naive: round%4 == 3}
			if err := m.RefitFromCounts(ct, opts); err != nil {
				t.Fatal(err)
			}
			fresh, err := TrainFromCounts(ct, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.Snapshot(), fresh.Snapshot()) {
				t.Fatalf("evolution %d round %d: refitted model differs from a fresh train", evolution, round)
			}
			if prevParents != nil && !reflect.DeepEqual(prevParents, m.Parents()) {
				treeChanges++
			}
			prevParents = m.Parents()

			if lr == nil {
				lr = m.LogRatios()
			} else {
				lr.Refresh()
			}
			var scFast Scratch
			marginals := make([][]float64, len(bins))
			for trial := 0; trial < 20; trial++ {
				for i, b := range bins {
					marginals[i] = make([]float64, b)
					for v := range marginals[i] {
						if rng.Intn(4) > 0 {
							marginals[i][v] = rng.Float64()
						}
					}
				}
				want, err := fresh.marginalScore(marginals)
				if err != nil {
					t.Fatal(err)
				}
				got := m.MarginalScoreFast(marginals, lr, &scFast)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("evolution %d round %d: refreshed table scores %v, fresh model %v", evolution, round, got, want)
				}
			}
		}
	}
	if treeChanges < 200 {
		t.Fatalf("the tree changed across only %d of 350 refits; the test is not exercising a moving tree", treeChanges)
	}
}

// TestRefitAllocatesNothing pins the in-place contract at this layer:
// once fitted, updating the integer count table (Add, Relabel both
// ways, Remove and Add back), refitting the model and refreshing its
// table is free of allocations.
func TestRefitAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bins := []int{8, 8, 8, 8, 8}
	ct, err := NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range randomInstances(rng, bins, 400, 0.3) {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	m, err := TrainFromCounts(ct, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr := m.LogRatios()
	extra := randomInstances(rng, bins, 64, 0.3)
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		inst := extra[k%len(extra)]
		k++
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
		if err := ct.Relabel(inst.Bins, !inst.Abnormal); err != nil {
			t.Fatal(err)
		}
		if err := ct.Relabel(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
		if err := ct.Remove(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
		if err := m.RefitFromCounts(ct, Options{}); err != nil {
			t.Fatal(err)
		}
		lr.Refresh()
	})
	if allocs != 0 {
		t.Fatalf("count updates + refit + refresh allocate %.1f/op, want 0", allocs)
	}
}

// TestRefitRejectsWithoutTouchingModel: an empty table and a table of
// another shape are both refused before the receiver is written, so the
// old fit keeps scoring.
func TestRefitRejectsWithoutTouchingModel(t *testing.T) {
	m := trainRandomModel(t, rand.New(rand.NewSource(3)), 5, 4, false)
	before := m.Snapshot()
	lr := m.LogRatios()

	empty, err := NewCountTable([]int{4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RefitFromCounts(empty, Options{}); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("refit from an empty table: %v, want ErrNoInstances", err)
	}
	if err := m.RefitFromCounts(nil, Options{}); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("refit from a nil table: %v, want ErrNoInstances", err)
	}
	other, err := NewCountTable([]int{4, 4, 4, 4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Add([]int{0, 1, 2, 3, 2}, false); err != nil {
		t.Fatal(err)
	}
	if err := m.RefitFromCounts(other, Options{}); !errors.Is(err, ErrShape) {
		t.Fatalf("refit from a table of another shape: %v, want ErrShape", err)
	}
	if !reflect.DeepEqual(m.Snapshot(), before) {
		t.Fatal("a refused refit changed the model")
	}
	if lr.gen != m.gen {
		t.Fatal("a refused refit left the log-ratio table stale")
	}
}
