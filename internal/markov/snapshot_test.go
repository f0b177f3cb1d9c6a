package markov

import (
	"math"
	"testing"
)

func TestSimpleChainSnapshotRoundTrip(t *testing.T) {
	c, err := NewSimpleChain(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit([]int{0, 1, 2, 3, 2, 1, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(c)
	if snap.Order != 1 || snap.States != 4 {
		t.Fatalf("snapshot meta = %+v", snap)
	}
	restored, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for steps := 1; steps <= 6; steps++ {
		a, b := c.Predict(steps), restored.Predict(steps)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-12 {
				t.Fatalf("steps %d bin %d: %g vs %g", steps, j, a[j], b[j])
			}
		}
	}
}

func TestTwoDepChainSnapshotRoundTrip(t *testing.T) {
	c, err := NewTwoDepChain(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit([]int{0, 1, 2, 1, 0, 1, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(c)
	if snap.Order != 2 || snap.States != 3 || snap.NSeen < 2 {
		t.Fatalf("snapshot meta = %+v", snap)
	}
	restored, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Predict(4), restored.Predict(4)
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-12 {
			t.Fatalf("bin %d: %g vs %g", j, a[j], b[j])
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	c, err := NewSimpleChain(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit([]int{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(c)
	snap.Counts[0][0] = 999
	if c.counts[0] == 999 {
		t.Error("snapshot shares memory with the chain")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	valid := func() Snapshot {
		c, _ := NewSimpleChain(2)
		_ = c.Fit([]int{0, 1, 0})
		return snapshotOf(c)
	}
	cases := map[string]func() Snapshot{
		"zero states":  func() Snapshot { s := valid(); s.States = 0; return s },
		"bad order":    func() Snapshot { s := valid(); s.Order = 3; return s },
		"row count":    func() Snapshot { s := valid(); s.Counts = s.Counts[:1]; return s },
		"col count":    func() Snapshot { s := valid(); s.Counts[0] = s.Counts[0][:1]; return s },
		"cur range":    func() Snapshot { s := valid(); s.Cur = 9; return s },
		"negative cur": func() Snapshot { s := valid(); s.Cur = -1; return s },
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := FromSnapshot(mk()); err == nil {
				t.Error("invalid snapshot should fail")
			}
		})
	}
	// Two-dep specific: prev out of range.
	d, _ := NewTwoDepChain(2)
	_ = d.Fit([]int{0, 1, 0})
	snap := snapshotOf(d)
	snap.Prev = 7
	if _, err := FromSnapshot(snap); err == nil {
		t.Error("invalid prev should fail")
	}
	// Two-dep row-count mismatch.
	snap2 := snapshotOf(d)
	snap2.Counts = snap2.Counts[:2]
	if _, err := FromSnapshot(snap2); err == nil {
		t.Error("two-dep row count mismatch should fail")
	}
}

// snapshotOf exports a chain through its SnapshotInto.
func snapshotOf(c interface{ SnapshotInto(*Snapshot) }) Snapshot {
	var s Snapshot
	c.SnapshotInto(&s)
	return s
}
