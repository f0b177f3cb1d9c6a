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
// and sorted-kernel paths must reproduce its bits.
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

// checkMedian requires selectMedian, where it does not decline, to
// equal medianSorting in bits, and to decline only on a NaN or a zero
// median next to a -0.
func checkMedian(t *testing.T, xs []float64) {
	t.Helper()
	want := medianSorting(slices.Clone(xs))
	got, ok := selectMedian(slices.Clone(xs))
	if !ok {
		if !slices.ContainsFunc(xs, func(v float64) bool { return v != v }) &&
			!(want == 0 && slices.ContainsFunc(xs, func(v float64) bool { return v == 0 && math.Signbit(v) })) {
			t.Fatalf("selectMedian(%v) declined", xs)
		}
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("selectMedian(%v) = %v (%#x), sorting gives %v (%#x)", xs, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// bitsOf is the sorted multiset of vs's bit patterns.
func bitsOf(vs []float64) []uint64 {
	b := make([]uint64, len(vs))
	for i, v := range vs {
		b[i] = math.Float64bits(v)
	}
	slices.Sort(b)
	return b
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
	var f RobustFitter
	for iter := 0; iter < 2000; iter++ {
		n, width := 1+rng.Intn(300), 1+rng.Intn(4)
		cols := make([][]float64, width)
		for j := range cols {
			cols[j] = medianShape(rng, n, iter%8 == 0)
		}
		checkRobustScale(t, cols, &f)
	}
}

// checkRobustScale fits the rows whose columns are cols (all of one
// length) with RobustScaleInto through f under the current robustKernel
// and requires robustScaleSorting's bits.
func checkRobustScale(t *testing.T, cols [][]float64, f *RobustFitter) {
	t.Helper()
	rows := make([][]float64, len(cols[0]))
	for i := range rows {
		rows[i] = make([]float64, len(cols))
		for j := range cols {
			rows[i][j] = cols[j][i]
		}
	}
	wantC, wantS := robustScaleSorting(rows)
	center, scale := make([]float64, len(cols)), make([]float64, len(cols))
	RobustScaleInto(rows, center, scale, f)
	for j := range cols {
		if math.Float64bits(center[j]) != math.Float64bits(wantC[j]) || math.Float64bits(scale[j]) != math.Float64bits(wantS[j]) {
			t.Fatalf("%s, column %v: RobustScaleInto = (%#x, %#x), sorting gives (%#x, %#x)", robustKernel, cols[j],
				math.Float64bits(center[j]), math.Float64bits(scale[j]), math.Float64bits(wantC[j]), math.Float64bits(wantS[j]))
		}
	}
}

// robustKinds is every way FitColumn can fit a column, fastest
// first.
var robustKinds = []robustKind{robustSort, robustSelect}

func robustKindAvailable(k robustKind) bool { return k == robustSelect || sort128Available }

// withRobustKernel runs f with FitColumn switched to kernel k.
func withRobustKernel(k robustKind, f func()) {
	defer func(was robustKind) { robustKernel = was }(robustKernel)
	robustKernel = k
	f()
}

// eachRobustKernel runs f as one subtest per kernel, named after it,
// with FitColumn switched to that kernel. A kernel this machine
// lacks is skipped; selection runs everywhere, so the portable path is
// exercised on machines that have the sort too.
func eachRobustKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range robustKinds {
		t.Run(k.String(), func(t *testing.T) {
			if !robustKindAvailable(k) {
				t.Skipf("the %s kernel is not available on this machine", k)
			}
			withRobustKernel(k, func() { f(t) })
		})
	}
}

// TestRobustKernelAvailable logs the kernel CPUID picked, so a test log
// shows whether the sort's tests ran or were skipped.
func TestRobustKernelAvailable(t *testing.T) {
	t.Logf("FitColumn sorts with %s", robustKernel)
	if robustKernel != bestRobustKernel() {
		t.Errorf("FitColumn runs %s, want the fastest available, %s", robustKernel, bestRobustKernel())
	}
}

// edgeColumns is n-value columns on the edges of fitSorted's decline
// rules: flat ones, every zero a -0 or one -0 among +0s (a zero
// median), a -0 away from a non-zero median, an infinite or NaN median
// (mostly +Inf, half -Inf and half +Inf), a mean of the middle values
// that overflows, and subnormals.
func edgeColumns(n int) [][]float64 {
	negZero, inf, big := math.Copysign(0, -1), math.Inf(1), math.MaxFloat64
	fill := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	return [][]float64{
		fill(func(int) float64 { return 2.5 }),
		fill(func(int) float64 { return 0 }),
		fill(func(int) float64 { return negZero }),
		fill(func(i int) float64 { return [...]float64{0, 0, 0, negZero}[i%4] }),
		fill(func(i int) float64 { return [...]float64{negZero, 3, 4, 5}[i%4] }),
		fill(func(i int) float64 { return [...]float64{inf, inf, 1}[i%3] }),
		fill(func(i int) float64 { return [...]float64{inf, -inf}[i%2] }),
		fill(func(i int) float64 { return [...]float64{big, big, -1}[i%3] }),
		fill(func(i int) float64 { return float64(i%5-2) * 5e-324 }),
	}
}

// TestRobustScaleKernelMatchesSort pins each kernel's robust fit to
// robustScaleSorting bit for bit at every n from 1 to 300, across the
// sorted kernel's 64-, 128- and 129-row boundaries: medianShape's
// columns (ties, ±0, ±Inf, subnormals, NaNs with payloads), two-valued
// columns and edgeColumns.
func TestRobustScaleKernelMatchesSort(t *testing.T) {
	eachRobustKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		var f RobustFitter
		for n := 1; n <= 300; n++ {
			for rep := 0; rep < 6; rep++ {
				cols := make([][]float64, 3)
				for j := range cols {
					cols[j] = medianShape(rng, n, rep == 5 && j == 0)
				}
				a, b := cols[2][0], cols[2][n-1]
				for i := range cols[2] { // two-valued
					cols[2][i] = a
					if rng.Intn(2) == 0 {
						cols[2][i] = b
					}
				}
				checkRobustScale(t, cols, &f)
			}
			checkRobustScale(t, edgeColumns(n), &f)
		}
	})
}

// TestSort128 checks the register sort itself, over 0 to 128 values
// with NaNs past them: over NaN-free values it writes them sorted
// ascending, a permutation of the bit patterns, followed by +Inf pads,
// with or without ±0 and ±Inf; it reports a -0 exactly when there is
// one; with a NaN it reports it and leaves its output alone; it never
// reads past its values or changes them. fitSorted must take the
// kernel's result for a plain column and decline where selection
// decides.
func TestSort128(t *testing.T) {
	if !sort128Available {
		t.Skip("the sort kernel is not available on this machine")
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 5000; iter++ {
		n := 128
		if iter%2 == 1 {
			n = rng.Intn(129)
		}
		var xs, out [128]float64
		copy(xs[:], medianShape(rng, n, iter%4 == 0))
		for i := n; i < len(xs); i++ {
			xs[i] = math.NaN() // past the values: must not be read
		}
		in := xs
		for i := range out {
			out[i] = float64(i)
		}
		was := out
		hasNaN := slices.ContainsFunc(in[:n], func(v float64) bool { return v != v })
		hasNegZero := slices.ContainsFunc(in[:n], func(v float64) bool { return v == 0 && math.Signbit(v) })
		nan, negZero := sort128AVX512(&out, &xs[0], n)
		if nan != hasNaN || (!nan && negZero != hasNegZero) {
			t.Fatalf("sort128AVX512(%v) reports nan %v, -0 %v", in[:n], nan, negZero)
		}
		if !slices.Equal(bitsOf(xs[:]), bitsOf(in[:])) {
			t.Fatalf("sort128AVX512 changed its input %v to %v", in, xs)
		}
		if nan {
			if out != was {
				t.Fatalf("sort128AVX512 wrote an output for an input holding a NaN")
			}
			continue
		}
		if !slices.IsSorted(out[:n]) || !slices.Equal(bitsOf(out[:n]), bitsOf(in[:n])) {
			t.Fatalf("sort128AVX512(%v) = %v", in[:n], out[:n])
		}
		for i := n; i < len(out); i++ {
			if !math.IsInf(out[i], 1) {
				t.Fatalf("sort128AVX512 of %d values padded with %v at %d", n, out[i], i)
			}
		}
	}

	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		xs []float64
		ok bool
	}{
		{[]float64{3, 1, 2, 7}, true},
		{[]float64{negZero, 3, 4}, true},
		{[]float64{0, 0, 1}, true},
		{[]float64{negZero, 0, 1}, false},
		{[]float64{1, math.NaN(), 2}, false},
		{[]float64{math.Inf(1), math.Inf(1), 1}, false},
	} {
		var sorted [SortLen]float64
		if _, _, ok := fitSorted(tc.xs, &sorted); ok != tc.ok {
			t.Errorf("fitSorted(%v) ok = %v, want %v", tc.xs, ok, tc.ok)
		}
	}
}

// TestRobustScaleIntoAllocationFree: a caller that keeps its
// RobustFitter refits without allocating, under every kernel.
func TestRobustScaleIntoAllocationFree(t *testing.T) {
	eachRobustKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		rows := make([][]float64, 128)
		for i := range rows {
			rows[i] = medianShape(rng, NumAttributes, false)
		}
		center, scale := make([]float64, NumAttributes), make([]float64, NumAttributes)
		var f RobustFitter
		RobustScaleInto(rows, center, scale, &f)
		if allocs := testing.AllocsPerRun(20, func() {
			RobustScaleInto(rows, center, scale, &f)
		}); allocs != 0 {
			t.Errorf("RobustScaleInto allocates %v/op with a warm fitter, want 0", allocs)
		}
	})
}

// FuzzMedianSelect feeds arbitrary float64 bit patterns (8 bytes each)
// through selectMedian and the sorting reference, and as a column (and
// the column reversed) through RobustScaleInto under every kernel this
// machine has.
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
		if len(xs) == 0 {
			return
		}
		cols := [][]float64{xs, slices.Clone(xs)}
		slices.Reverse(cols[1])
		for _, k := range robustKinds {
			if robustKindAvailable(k) {
				withRobustKernel(k, func() { checkRobustScale(t, cols, new(RobustFitter)) })
			}
		}
	})
}
