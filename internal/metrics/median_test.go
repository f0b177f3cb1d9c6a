package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// robustScaleSorting is RobustScale as it was fit before selection: every
// median by sorting, deviations taken in sorted order. The selection
// path must reproduce its bits.
func robustScaleSorting(rows [][]float64) (center, scale []float64) {
	center = make([]float64, len(rows[0]))
	scale = make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for j := range center {
		for i, row := range rows {
			col[i] = row[j]
		}
		center[j] = medianSorting(col)
		for i, v := range col {
			col[i] = math.Abs(v - center[j])
		}
		scale[j] = 1.4826 * medianSorting(col)
		if scale[j] < 1e-9 {
			scale[j] = 1e-9
		}
	}
	return center, scale
}

// medianShape draws n values in the shapes that make medians
// order-sensitive: heavy duplication, ±0, ±Inf and NaNs with distinct
// payloads, mixed with normals. withNaN gates the NaNs so most draws
// exercise the selection path rather than the fallback.
func medianShape(rng *rand.Rand, n int, withNaN bool) []float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, math.Inf(1), math.Inf(-1), 5e-324, -5e-324}
	xs := make([]float64, n)
	for i := range xs {
		switch r := rng.Intn(10); {
		case r < 4:
			xs[i] = pool[rng.Intn(len(pool))]
		case r < 5 && withNaN:
			xs[i] = math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(1<<20)) | uint64(rng.Intn(2))<<63)
		default:
			xs[i] = math.Round(rng.NormFloat64()*4) / 2
		}
	}
	return xs
}

// checkMedian requires Median to equal medianSorting in bits and to
// leave its input untouched.
func checkMedian(t *testing.T, xs []float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	want := medianSorting(append([]float64(nil), xs...))
	got := Median(xs)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Median(%v) = %v (%#x), sorting gives %v (%#x)", orig, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("Median reordered its input at %d", i)
		}
	}
}

// checkSelectK runs selectK at every k over copies of xs, which holds no
// NaN. Each result must equal the value sort.Float64s puts at k (±0
// compare equal: sorting orders them by position), sit at xs[k] with
// nothing above it before k and nothing below it after, and leave the
// multiset of bit patterns unchanged.
func checkSelectK(t *testing.T, xs []float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	bitsOf := func(vs []float64) []uint64 {
		b := make([]uint64, len(vs))
		for i, v := range vs {
			b[i] = math.Float64bits(v)
		}
		slices.Sort(b)
		return b
	}
	want := bitsOf(xs)
	work := make([]float64, len(xs))
	for k := range xs {
		copy(work, xs)
		got := selectK(work, k)
		if got != sorted[k] || math.Float64bits(got) != math.Float64bits(work[k]) {
			t.Fatalf("selectK(%v, %d) = %v with xs[k] = %v, sorting gives %v", xs, k, got, work[k], sorted[k])
		}
		for i, v := range work {
			if (i < k && v > got) || (i > k && v < got) {
				t.Fatalf("selectK(%v, %d) left %v at %d: %v", xs, k, v, i, work)
			}
		}
		if !slices.Equal(bitsOf(work), want) {
			t.Fatalf("selectK(%v, %d) changed the values: %v", xs, k, work)
		}
	}
}

// TestMedianSelectMatchesSort pins selection medians, and the robust
// baseline built on them, to the sorting medians bit for bit on inputs
// mixing duplicates, ±0, ±Inf and NaN, n from 1 to 300. selectK itself
// is checked at every k on NaN-free inputs: ties, all-equal and
// two-valued columns, ±Inf, and n of 1 and 2 among them.
func TestMedianSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	for _, xs := range [][]float64{
		{3}, {inf}, {1, 2}, {2, 1}, {0, negZero}, {negZero, 0}, {inf, -inf}, {5, 5},
		{2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5},
		{1, 4, 4, 1, 1, 4, 4, 1, 4},
		{inf, inf, -inf, inf, -inf, -inf},
		{0, negZero, 0, 1, negZero, -1, 0, negZero},
	} {
		checkSelectK(t, xs)
	}
	for iter := 0; iter < 2000; iter++ {
		xs := medianShape(rng, 1+rng.Intn(64), false)
		if iter%4 == 0 { // two-valued
			a, b := xs[0], xs[len(xs)-1]
			for i := range xs {
				xs[i] = a
				if rng.Intn(2) == 0 {
					xs[i] = b
				}
			}
		}
		checkSelectK(t, xs)
	}
	for iter := 0; iter < 20000; iter++ {
		checkMedian(t, medianShape(rng, 1+rng.Intn(300), iter%8 == 0))
	}
	var scratch []float64
	for iter := 0; iter < 2000; iter++ {
		n, width := 1+rng.Intn(300), 1+rng.Intn(4)
		rows := make([][]float64, n)
		cols := make([][]float64, width)
		for j := range cols {
			cols[j] = medianShape(rng, n, iter%8 == 0)
		}
		for i := range rows {
			rows[i] = make([]float64, width)
			for j := range cols {
				rows[i][j] = cols[j][i]
			}
		}
		wantC, wantS := robustScaleSorting(rows)
		center, scale := make([]float64, width), make([]float64, width)
		scratch = RobustScaleInto(rows, center, scale, scratch)
		for j := 0; j < width; j++ {
			if math.Float64bits(center[j]) != math.Float64bits(wantC[j]) || math.Float64bits(scale[j]) != math.Float64bits(wantS[j]) {
				t.Fatalf("column %v: RobustScaleInto = (%#x, %#x), sorting gives (%#x, %#x)", cols[j],
					math.Float64bits(center[j]), math.Float64bits(scale[j]), math.Float64bits(wantC[j]), math.Float64bits(wantS[j]))
			}
		}
	}
}

// TestRobustScaleIntoAllocationFree: a caller that keeps the returned
// scratch refits without allocating.
func TestRobustScaleIntoAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := make([][]float64, 128)
	for i := range rows {
		rows[i] = medianShape(rng, NumAttributes, false)
	}
	center, scale := make([]float64, NumAttributes), make([]float64, NumAttributes)
	scratch := RobustScaleInto(rows, center, scale, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		scratch = RobustScaleInto(rows, center, scale, scratch)
	}); allocs != 0 {
		t.Errorf("RobustScaleInto allocates %v/op with warm scratch, want 0", allocs)
	}
}

// FuzzMedianSelect feeds arbitrary float64 bit patterns (8 bytes each)
// through Median and the sorting reference.
func FuzzMedianSelect(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 75, 256, 300} {
		for _, withNaN := range []bool{false, true} {
			xs := medianShape(rng, n, withNaN)
			b := make([]byte, 8*len(xs))
			for i, v := range xs {
				binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkMedian(t, xs)
		if !slices.ContainsFunc(xs, func(v float64) bool { return v != v }) {
			checkSelectK(t, xs)
		}
	})
}
