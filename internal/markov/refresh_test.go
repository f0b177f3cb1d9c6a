package markov

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refreshStates are the chain sizes the refresh differential covers:
// the per-row mask path (2, 5, 8) and the dirtyAll path (9).
var refreshStates = []int{2, 5, 8, 9}

// checkRefreshedRows refreshes ch and requires every row to equal the
// row-at-a-time oracle by bits, the running totals to equal a recount
// of the counts, and the counts plus warm-up to equal the bins fed.
func checkRefreshedRows(t *testing.T, ch *TwoDepChain, fed int, where string) {
	t.Helper()
	s := ch.states
	ch.refreshRows()
	want := make([]float64, s)
	for prev := 0; prev < s; prev++ {
		for cur := 0; cur < s; cur++ {
			ch.rowInto(prev, cur, want)
			got := ch.row(prev, cur)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: states %d row (%d,%d) bin %d: refreshed %v (%#x) vs rowInto %v (%#x)",
						where, s, prev, cur, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
	}
	colAgg := make([]uint32, s*s)
	colTot := make([]uint32, s)
	for cur := 0; cur < s; cur++ {
		for prev := 0; prev < s; prev++ {
			rowTot := uint32(0)
			for j, n := range ch.countsOf(prev, cur) {
				rowTot += n
				colAgg[cur*s+j] += n
			}
			colTot[cur] += rowTot
			if got := ch.rowTot[cur*s+prev]; got != rowTot {
				t.Fatalf("%s: states %d row (%d,%d) total %d, recount %d", where, s, prev, cur, got, rowTot)
			}
		}
	}
	for k := range colAgg {
		if ch.colAgg[k] != colAgg[k] {
			t.Fatalf("%s: states %d column %d aggregate[%d] %d, recount %d", where, s, k/s, k%s, ch.colAgg[k], colAgg[k])
		}
	}
	total := 0
	for cur := range colTot {
		if ch.colTot[cur] != colTot[cur] {
			t.Fatalf("%s: states %d column %d total %d, recount %d", where, s, cur, ch.colTot[cur], colTot[cur])
		}
		total += int(colTot[cur])
	}
	if min(fed, 2) != ch.nSeen {
		t.Fatalf("%s: nSeen %d after %d bins", where, ch.nSeen, fed)
	}
	if total+ch.nSeen != fed {
		t.Fatalf("%s: counts recount %d + %d warm-up, fed %d", where, total, ch.nSeen, fed)
	}
}

// driveRefresh runs ops as a program over one chain of the given size.
// Each byte is one operation, chosen by its low three bits: 0-3 observe
// one bin, 4 refreshes and checks every row, 5 round-trips the chain
// through Snapshot and FromSnapshot (and checks the restored rows when
// the high bit is set), 6 Fits a run of up to eight bins taken from
// the bytes that follow, 7 predicts through the batch path (which
// refreshes as the control loop does) and checks nothing. The high
// bits pick the bin. A final check closes every program.
func driveRefresh(t *testing.T, states int, ops []byte) {
	t.Helper()
	ch, err := NewTwoDepChain(states)
	if err != nil {
		t.Fatal(err)
	}
	out := seriesSlices(4, states)
	fed := 0
	for i := 0; i < len(ops); i++ {
		b := ops[i]
		bin := int(b>>3) % states
		switch b & 7 {
		case 0, 1, 2, 3:
			if err := ch.Observe(bin); err != nil {
				t.Fatal(err)
			}
			fed++
		case 4:
			checkRefreshedRows(t, ch, fed, "refresh")
		case 5:
			p, err := FromSnapshot(snapshotOf(ch))
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			ch = p.(*TwoDepChain)
			if b&0x80 != 0 {
				checkRefreshedRows(t, ch, fed, "restored")
			}
		case 6:
			n := 1 + int(b>>3)%8
			seq := make([]int, 0, n)
			for ; len(seq) < n && i+1 < len(ops); i++ {
				seq = append(seq, int(ops[i+1])%states)
			}
			if err := ch.Fit(seq); err != nil {
				t.Fatal(err)
			}
			fed += len(seq)
		case 7:
			ch.PredictSeriesInto(out)
		}
	}
	checkRefreshedRows(t, ch, fed, "final")
}

// randomRefreshProgram draws a program for driveRefresh that is mostly
// observations from a sticky walk, which leaves some combined states
// unobserved for a long time (backoff rows) and others hot.
func randomRefreshProgram(rng *rand.Rand, n int) []byte {
	ops := make([]byte, n)
	walk := byte(0)
	for i := range ops {
		if rng.Intn(3) == 0 {
			walk = byte(rng.Intn(32))
		}
		switch r := rng.Intn(20); {
		case r < 14:
			ops[i] = walk<<3 | byte(rng.Intn(4))
		case r < 16:
			ops[i] = 4
		case r < 17:
			ops[i] = byte(rng.Intn(32))<<3 | 5
		case r < 18:
			ops[i] = byte(rng.Intn(32))<<3 | 6
		default:
			ops[i] = 7
		}
	}
	return ops
}

// TestTwoDepRefreshMatchesRowInto drives random programs of
// observations, refreshes, snapshot round-trips, fits and batch
// predictions through chains of every refreshStates size, comparing
// the per-row refresh with the full re-sum after every step that
// refreshes.
func TestTwoDepRefreshMatchesRowInto(t *testing.T) {
	for _, states := range refreshStates {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(states)))
			driveRefresh(t, states, randomRefreshProgram(rng, 400))
		}
	}
}

func FuzzTwoDepRefresh(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for k := range refreshStates {
		f.Add(uint8(k), randomRefreshProgram(rng, 64))
	}
	f.Add(uint8(2), []byte{0, 8, 16, 4, 0x85, 24, 4, 0x6e, 1, 2, 3, 4, 5, 6, 7, 7, 4})
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		driveRefresh(t, refreshStates[int(which)%len(refreshStates)], ops)
	})
}

// TestNewTwoDepChainAllocs pins a chain's footprint: the chain and one
// block holding its counts and running totals.
func TestNewTwoDepChainAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewTwoDepChain(8); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("NewTwoDepChain(8) allocates %v times, want <= 2", allocs)
	}
}

// TestFromSnapshotRejectsBadCounts: a count that is not a whole number
// in [0, 2^32-1], or column totals past that bound, is refused for
// both chain orders.
func TestFromSnapshotRejectsBadCounts(t *testing.T) {
	valid := func(order int) Snapshot {
		var p interface {
			Predictor
			SnapshotInto(*Snapshot)
		}
		if order == 1 {
			p, _ = NewSimpleChain(3)
		} else {
			p, _ = NewTwoDepChain(3)
		}
		for _, b := range []int{0, 1, 2, 1, 0, 2, 2} {
			if err := p.Observe(b); err != nil {
				t.Fatal(err)
			}
		}
		return snapshotOf(p)
	}
	for _, order := range []int{1, 2} {
		if _, err := FromSnapshot(valid(order)); err != nil {
			t.Fatalf("order %d: valid snapshot refused: %v", order, err)
		}
		for _, tc := range []struct {
			name string
			n    float64
		}{
			{"negative", -1},
			{"negative fraction", -0.5},
			{"fractional", 0.5},
			{"huge", 1e308},
			{"past uint32", 1 << 32},
			{"nan", math.NaN()},
			{"inf", math.Inf(1)},
		} {
			s := valid(order)
			s.Counts[1][2] = tc.n
			if _, err := FromSnapshot(s); err == nil {
				t.Errorf("order %d: count %v (%s) restored", order, tc.n, tc.name)
			}
		}
	}
	// Two counts of 2^32-1 are each in range, but their column's total
	// is not: rows (0,1) and (2,1) share column 1.
	s := valid(2)
	s.Counts[0*3+1][0] = maxCount
	s.Counts[2*3+1][2] = maxCount
	if _, err := FromSnapshot(s); !errors.Is(err, ErrCountOverflow) {
		t.Errorf("column total past 2^32-1: %v, want ErrCountOverflow", err)
	}
	s = valid(2)
	s.NSeen = 3
	if _, err := FromSnapshot(s); err == nil {
		t.Error("nSeen 3 restored")
	}
}

// TestObserveRefusesOverflow: an observation that would take a count or
// a running total past 2^32-1 is an error and changes nothing.
func TestObserveRefusesOverflow(t *testing.T) {
	d, _ := NewTwoDepChain(3)
	if err := d.Fit([]int{0, 1, 2, 1}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(d)
	// The chain sits at (prev, cur) = (2, 1); fill column 1 to the bound.
	snap.Counts[0*3+1][2] = maxCount - snap.Counts[2*3+1][1]
	p, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	d = p.(*TwoDepChain)
	before := snapshotOf(d)
	if err := d.Observe(0); !errors.Is(err, ErrCountOverflow) {
		t.Fatalf("two-dep observe past the bound: %v, want ErrCountOverflow", err)
	}
	after := snapshotOf(d)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused observe moved the chain: %+v -> %+v", before, after)
	}

	s, _ := NewSimpleChain(2)
	if err := s.Fit([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	ssnap := snapshotOf(s)
	ssnap.Counts[1][0] = maxCount
	p, err = FromSnapshot(ssnap)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(0); !errors.Is(err, ErrCountOverflow) {
		t.Fatalf("simple observe past the bound: %v, want ErrCountOverflow", err)
	}
	if err := p.Observe(1); err != nil {
		t.Fatalf("an observe within the bound refused: %v", err)
	}
}
