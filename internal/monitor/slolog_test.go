package monitor

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

// sliceSLOLog is the reference model: every observation kept, every
// query answered second by second.
type sliceSLOLog struct{ records []SLORecord }

func (l *sliceSLOLog) record(now simclock.Time, violated bool) {
	l.records = append(l.records, SLORecord{Time: now, Violated: violated})
}

func (l *sliceSLOLog) violatedAt(t simclock.Time) bool {
	idx := sort.Search(len(l.records), func(i int) bool { return l.records[i].Time.After(t) })
	return idx > 0 && l.records[idx-1].Violated
}

func (l *sliceSLOLog) end() simclock.Time {
	if len(l.records) == 0 {
		return 0
	}
	return l.records[len(l.records)-1].Time
}

func (l *sliceSLOLog) violationSeconds(from, to simclock.Time) int64 {
	total := int64(0)
	for t := from; t.Before(to); t = t.Add(1) {
		if l.violatedAt(t) {
			total++
		}
	}
	return total
}

func (l *sliceSLOLog) violations(from, to simclock.Time) [][2]simclock.Time {
	var out [][2]simclock.Time
	in := false
	var start simclock.Time
	for t := from; t.Before(to); t = t.Add(1) {
		switch v := l.violatedAt(t); {
		case v && !in:
			in, start = true, t
		case !v && in:
			in = false
			out = append(out, [2]simclock.Time{start, t})
		}
	}
	if in {
		out = append(out, [2]simclock.Time{start, to})
	}
	return out
}

// TestSLOLogMatchesSliceModel drives random logs — long runs of one
// state, repeats, and several flips at one instant — into the
// change-point log and the keep-everything model, and requires every
// query to agree at every instant and over every window.
func TestSLOLogMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		var got SLOLog
		var want sliceSLOLog
		now := simclock.Time(rng.Intn(5))
		state := rng.Intn(2) == 0
		for n := rng.Intn(60); n > 0; n-- {
			switch r := rng.Intn(10); {
			case r < 2:
				// A flip at the same instant as the previous record.
			case r < 4:
				now = now.Add(int64(1 + rng.Intn(15)))
			default:
				now = now.Add(1)
			}
			if rng.Intn(4) == 0 {
				state = !state
			}
			if err := got.Record(now, state); err != nil {
				t.Fatal(err)
			}
			want.record(now, state)
		}
		if got.Len() != len(want.records) || got.End() != want.end() {
			t.Fatalf("Len/End = %d/%v, want %d/%v", got.Len(), got.End(), len(want.records), want.end())
		}
		last := want.end() + 3
		for q := simclock.Time(-2); q <= last; q++ {
			if got.ViolatedAt(q) != want.violatedAt(q) {
				t.Fatalf("iter %d: ViolatedAt(%v) = %v, want %v (records %v)", iter, q, got.ViolatedAt(q), want.violatedAt(q), want.records)
			}
			wl := metrics.LabelUnknown
			if len(want.records) > 0 {
				wl = metrics.LabelNormal
				if want.violatedAt(q) {
					wl = metrics.LabelAbnormal
				}
			}
			if gl := got.Label(q); gl != wl {
				t.Fatalf("iter %d: Label(%v) = %v, want %v", iter, q, gl, wl)
			}
		}
		for k := 0; k < 40; k++ {
			from := simclock.Time(rng.Intn(int(last)+4) - 2)
			to := from.Add(int64(rng.Intn(int(last)+4) - 3))
			if g, w := got.ViolationSeconds(from, to), want.violationSeconds(from, to); g != w {
				t.Fatalf("iter %d: ViolationSeconds(%v, %v) = %d, want %d (records %v)", iter, from, to, g, w, want.records)
			}
			if g, w := got.Violations(from, to), want.violations(from, to); !reflect.DeepEqual(g, w) {
				t.Fatalf("iter %d: Violations(%v, %v) = %v, want %v (records %v)", iter, from, to, g, w, want.records)
			}
		}
	}
}

// TestSLOLogStoresChangePointsOnly: a long steady run costs one record.
func TestSLOLogStoresChangePointsOnly(t *testing.T) {
	var l SLOLog
	for s := simclock.Time(0); s < 10000; s++ {
		if err := l.Record(s, s >= 5000 && s < 5010); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.changes) != 3 || l.Len() != 10000 {
		t.Errorf("stored %d change points for %d records, want 3", len(l.changes), l.Len())
	}
}
