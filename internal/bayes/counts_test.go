package bayes

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomInstances draws n instances over the given bin shape, with the
// requested abnormal fraction.
func randomInstances(rng *rand.Rand, bins []int, n int, abnormalFrac float64) []instance {
	out := make([]instance, n)
	for i := range out {
		b := make([]int, len(bins))
		for j := range b {
			b[j] = rng.Intn(bins[j])
		}
		out[i] = instance{Bins: b, Abnormal: rng.Float64() < abnormalFrac}
	}
	return out
}

// TestTrainFromCountsMatchesBatchTrain is the foundational equivalence
// property: accumulating instances one Add at a time and rebuilding from
// the counts must produce bit-for-bit the model that batch Train fits
// from the same instances. Counts are integral floats (exact under 2^53)
// and the CMI/CPT formulas are shared, so exact equality is required,
// not approximate.
func TestTrainFromCountsMatchesBatchTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bins := []int{4, 3, 5, 2, 4}
	for trial := 0; trial < 20; trial++ {
		instances := randomInstances(rng, bins, 50+rng.Intn(400), 0.3)
		for _, naive := range []bool{false, true} {
			want, err := train(instances, bins, Options{Naive: naive})
			if err != nil {
				t.Fatal(err)
			}
			ct, err := NewCountTable(bins)
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range instances {
				if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
					t.Fatal(err)
				}
			}
			got, err := TrainFromCounts(ct, Options{Naive: naive})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Fatalf("trial %d (naive=%v): count-table model differs from batch model", trial, naive)
			}
		}
	}
}

// TestCountTableRelabelMatchesFinalLabels checks the streaming-relabel
// primitive: a table that took every instance with its provisional label
// and then Relabel-ed a subset must equal a table built directly from
// the final labels.
func TestCountTableRelabelMatchesFinalLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bins := []int{3, 4, 2}
	for trial := 0; trial < 20; trial++ {
		instances := randomInstances(rng, bins, 200, 0.5)
		streamed, err := NewCountTable(bins)
		if err != nil {
			t.Fatal(err)
		}
		final := make([]bool, len(instances))
		for i, inst := range instances {
			final[i] = inst.Abnormal
			if err := streamed.Add(inst.Bins, inst.Abnormal); err != nil {
				t.Fatal(err)
			}
		}
		// Flip a random subset through Relabel, tracking the final class.
		for i, inst := range instances {
			if rng.Float64() < 0.25 {
				final[i] = !final[i]
				if err := streamed.Relabel(inst.Bins, final[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		direct, err := NewCountTable(bins)
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range instances {
			if err := direct.Add(inst.Bins, final[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(streamed.Snapshot(), direct.Snapshot()) {
			t.Fatalf("trial %d: relabeled table differs from directly-built table", trial)
		}
	}
}

// TestCountTableRemoveUndoesAdd: Add then Remove must restore the exact
// prior state, the property a sliding-window trainer would rely on.
func TestCountTableRemoveUndoesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bins := []int{4, 4, 4}
	ct, err := NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	base := randomInstances(rng, bins, 50, 0.4)
	for _, inst := range base {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	before := ct.Snapshot()
	extra := randomInstances(rng, bins, 30, 0.6)
	for _, inst := range extra {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	for _, inst := range extra {
		if err := ct.Remove(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ct.Snapshot(), before) {
		t.Fatal("Add+Remove did not restore the table")
	}
}

// TestFoldAbnormalMatchesRelabeledBatch: folding the abnormal class into
// normal must equal training on the same instances all labeled normal
// (the minimum-support rule's batch semantics).
func TestFoldAbnormalMatchesRelabeledBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bins := []int{3, 3, 3, 3}
	instances := randomInstances(rng, bins, 120, 0.04)
	ct, err := NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	allNormal := make([]instance, len(instances))
	for i, inst := range instances {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
		allNormal[i] = instance{Bins: inst.Bins, Abnormal: false}
	}
	folded := ct.FoldAbnormal()
	if folded.ClassCount(true) != 0 {
		t.Fatalf("folded table still has %v abnormal instances", folded.ClassCount(true))
	}
	got, err := TrainFromCounts(folded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := train(allNormal, bins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatal("folded model differs from all-normal batch model")
	}
	// The original table must be untouched by the fold.
	if ct.ClassCount(true) == 0 {
		t.Fatal("FoldAbnormal mutated its receiver")
	}
}

// TestCountSnapshotRoundTrip: a table must survive Snapshot /
// CountTableFromSnapshot exactly, including further updates afterwards.
func TestCountSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bins := []int{5, 2, 3}
	ct, err := NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range randomInstances(rng, bins, 80, 0.3) {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	back, err := CountTableFromSnapshot(ct.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Snapshot(), ct.Snapshot()) {
		t.Fatal("snapshot round trip changed the table")
	}
	// Both copies must evolve identically.
	more := randomInstances(rng, bins, 20, 0.5)
	for _, inst := range more {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
		if err := back.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := TrainFromCounts(ct, Options{})
	b, _ := TrainFromCounts(back, Options{})
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("restored table diverged from the original")
	}
}

// TestCountTableValidation covers the error paths.
func TestCountTableValidation(t *testing.T) {
	if _, err := NewCountTable(nil); err == nil {
		t.Error("empty bins should fail")
	}
	if _, err := NewCountTable([]int{3, 0}); err == nil {
		t.Error("non-positive bin count should fail")
	}
	ct, err := NewCountTable([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Add([]int{1}, false); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := ct.Add([]int{1, 2}, false); err == nil {
		t.Error("out-of-range bin should fail")
	}
	if _, err := TrainFromCounts(ct, Options{}); err == nil {
		t.Error("training an empty table should fail")
	}
}

// TestCountTableRefusesOutOfRange: an Add past 2^32-1 instances and a
// Remove or Relabel that would take a count below zero are errors, and
// leave the table as it was.
func TestCountTableRefusesOutOfRange(t *testing.T) {
	bins := []int{3, 2, 4}
	ct, err := NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []instance{{[]int{0, 1, 2}, false}, {[]int{1, 1, 3}, true}, {[]int{2, 0, 0}, false}} {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	before := ct.Snapshot()
	unchanged := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCountRange) {
			t.Fatalf("%s: %v, want ErrCountRange", what, err)
		}
		if !reflect.DeepEqual(ct.Snapshot(), before) {
			t.Fatalf("%s: a refused update changed the table", what)
		}
	}
	// (0,1,3) shares attribute values with counted normal instances but
	// its pair (attr 0, attr 2) = (0, 3) was never counted.
	unchanged("remove a pair never counted", ct.Remove([]int{0, 1, 3}, false))
	unchanged("remove from the wrong class", ct.Remove([]int{0, 1, 2}, true))
	unchanged("relabel from the wrong class", ct.Relabel([]int{1, 1, 3}, true))
	unchanged("relabel a value never counted", ct.Relabel([]int{0, 0, 1}, true))

	if err := ct.Relabel([]int{1, 1, 3}, false); err != nil {
		t.Fatalf("relabel of a counted instance: %v", err)
	}
	unchanged = func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCountRange) {
			t.Fatalf("%s: %v, want ErrCountRange", what, err)
		}
	}
	unchanged("remove from an emptied class", ct.Remove([]int{1, 1, 3}, true))

	full, err := NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	full.classCount[0], full.total = maxCount, maxCount
	for _, m := range full.marg[0] {
		m[0] = maxCount
	}
	for _, p := range full.pair[0] {
		p[0] = maxCount
	}
	if err := full.Add([]int{0, 0, 0}, true); !errors.Is(err, ErrCountRange) {
		t.Fatalf("add past 2^32-1 instances: %v, want ErrCountRange", err)
	}
	if full.total != maxCount || full.classCount[1] != 0 || full.marg[1][0][0] != 0 {
		t.Fatal("a refused add changed the table")
	}
	if err := full.Remove([]int{0, 0, 0}, false); err != nil {
		t.Fatalf("remove from a full table: %v", err)
	}
	if err := full.Add([]int{0, 0, 0}, true); err != nil {
		t.Fatalf("add below the bound: %v", err)
	}
}

// TestCountTableFromSnapshotRejectsBadCounts: every cell, class count
// and total must be a whole number in [0, 2^32-1], the class counts
// must sum to the total, and every attribute and pair table must sum to
// its class count.
func TestCountTableFromSnapshotRejectsBadCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bins := []int{3, 2, 4}
	ct, err := NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range randomInstances(rng, bins, 40, 0.4) {
		if err := ct.Add(inst.Bins, inst.Abnormal); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CountTableFromSnapshot(ct.Snapshot()); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	bad := map[string]float64{
		"negative":    -1,
		"fractional":  0.5,
		"huge":        1e308,
		"past uint32": 1 << 32,
		"nan":         math.NaN(),
		"inf":         math.Inf(1),
	}
	for name, x := range bad {
		for _, at := range []struct {
			where string
			set   func(s *CountSnapshot)
		}{
			{"marg", func(s *CountSnapshot) { s.Marg[1][2][3] = x }},
			{"pair", func(s *CountSnapshot) { s.Pair[0][1][5] = x }},
			{"class", func(s *CountSnapshot) { s.Class[1] = x }},
			{"total", func(s *CountSnapshot) { s.Total = x }},
		} {
			s := ct.Snapshot()
			at.set(&s)
			if _, err := CountTableFromSnapshot(s); !errors.Is(err, ErrCountRange) {
				t.Errorf("%s %s count %v: %v, want ErrCountRange", name, at.where, x, err)
			}
		}
	}
	for name, set := range map[string]func(s *CountSnapshot){
		"class counts miss the total": func(s *CountSnapshot) { s.Total++ },
		"marg misses its class":       func(s *CountSnapshot) { s.Marg[0][1][0]++ },
		"pair misses its class":       func(s *CountSnapshot) { s.Pair[1][2][0]++ },
		"classes sum past 2^32-1": func(s *CountSnapshot) {
			s.Class[0], s.Class[1], s.Total = maxCount, maxCount, maxCount
		},
	} {
		s := ct.Snapshot()
		set(&s)
		if _, err := CountTableFromSnapshot(s); !errors.Is(err, ErrCountRange) {
			t.Errorf("%s: %v, want ErrCountRange", name, err)
		}
	}
}
