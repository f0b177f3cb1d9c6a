package markov

import (
	"math"
	"math/rand"
	"testing"

	"prepare/internal/bayes"
)

// The kernel input shapes the differential tests and the fuzz corpora
// cover. The first five are distributions over ordinary stochastic
// rows; the rest bend the rows to reach the projection mask and both
// argmax paths.
const (
	shapeOneHot    = iota // step 1: all mass on the chain's position
	shapeSingleRow        // step 2: one source-prev row populated
	shapeDense
	shapeZeros     // dense with exact zeros scattered through it
	shapeDenormals // dense with denormals scattered through it
	shapeTies      // one-hot over dyadic rows: tied marginal maxima
	shapeSigned    // one-hot over signed dyadic rows: negative marginals, tied
	shapeNaN       // dense over positive rows with one NaN cell
	numShapes
)

// stepInputs draws the rows and the combined-state distribution of the
// given shape. Ordinary rows are row-stochastic with some cells exactly
// zero.
func stepInputs(seed int64, shape int) (*[512]float64, *[64]float64) {
	rng := rand.New(rand.NewSource(seed))
	var rows [512]float64
	for idx := 0; idx < 64; idx++ {
		row := rows[idx*8 : idx*8+8]
		switch shape {
		case shapeTies:
			for j := range row {
				row[j] = float64(rng.Intn(3)) / 8
			}
			continue
		case shapeSigned:
			for j := range row {
				row[j] = float64(rng.Intn(4)-1) / 4
			}
			continue
		case shapeNaN:
			for j := range row {
				row[j] = 0.01 + rng.Float64()
			}
			continue
		}
		total := 0.0
		for j := range row {
			if rng.Intn(6) > 0 {
				row[j] = rng.Float64()
			}
			total += row[j]
		}
		if total == 0 {
			row[rng.Intn(8)], total = 1, 1
		}
		for j := range row {
			row[j] /= total
		}
	}
	var dist [64]float64
	switch shape {
	case shapeOneHot, shapeTies, shapeSigned:
		dist[rng.Intn(64)] = 1
	case shapeSingleRow:
		copy(dist[rng.Intn(8)*8:], rows[rng.Intn(64)*8:][:8])
	default:
		total := 0.0
		for i := range dist {
			dist[i] = rng.Float64()
			total += dist[i]
		}
		for i := range dist {
			dist[i] /= total
			switch {
			case shape == shapeZeros && rng.Intn(3) == 0:
				dist[i] = 0
			case shape == shapeDenormals && rng.Intn(3) == 0:
				dist[i] = float64(1+rng.Intn(1000)) * math.SmallestNonzeroFloat64
			}
		}
	}
	if shape == shapeNaN {
		rows[rng.Intn(512)] = math.NaN()
	}
	return &rows, &dist
}

// tabInput draws a projection table: mostly log-ratio-sized values,
// some exact zeros and some +Inf (which a masked zero marginal must not
// turn into NaN). With rootLike every lane of a row repeats its first.
func tabInput(rng *rand.Rand, rootLike bool) *[64]float64 {
	var tab [64]float64
	for i := range tab {
		switch rng.Intn(16) {
		case 0:
			tab[i] = math.Inf(1)
		case 1, 2:
		default:
			tab[i] = 3 * rng.NormFloat64()
		}
		if rootLike && i%8 != 0 {
			tab[i] = tab[i-i%8]
		}
	}
	return &tab
}

// seriesKernel is the series kernels' contract, over slices.
type seriesKernel func(rows *[512]float64, dist, next *[64]float64, marg, proj, tab []float64, argmax []int32)

// vecKernel is the vector series kernels' signature.
type vecKernel func(rows, dist, next *float64, start, steps int, marg, proj, tab *float64, argmax *int32, pre *float64)

// vectorKernels are both vector series kernels, whether this machine
// can run them or not.
var vectorKernels = []struct {
	kind kernelKind
	run  vecKernel
}{{kernelAVX512, twoDepSeries8AVX512}, {kernelAVX2, twoDepSeries8AVX2}}

// availableVectorKernels lists the vector kernels this machine can run.
func availableVectorKernels() []vecKernel {
	var ks []vecKernel
	for _, vk := range vectorKernels {
		if kernelAvailable(vk.kind) {
			ks = append(ks, vk.run)
		}
	}
	return ks
}

// skipUnavailable skips a test of kernel k, by name, on a machine that
// cannot run it.
func skipUnavailable(t testing.TB, k kernelKind) {
	t.Helper()
	if !kernelAvailable(k) {
		t.Skipf("no %s kernel on this machine", k)
	}
}

// eachVectorKernel runs f as one subtest per vector kernel, named after
// it, skipping those this machine lacks.
func eachVectorKernel(t *testing.T, f func(t *testing.T, k vecKernel)) {
	for _, vk := range vectorKernels {
		t.Run(vk.kind.String(), func(t *testing.T) {
			skipUnavailable(t, vk.kind)
			f(t, vk.run)
		})
	}
}

// allKernels is every series kernel, fastest first.
var allKernels = []kernelKind{kernelAVX512, kernelAVX2, kernelGo}

// TestKernelsAvailable logs which series kernels this machine can run
// and the one CPUID selected, so that a test log shows whether the
// vector kernels' tests ran or were skipped.
func TestKernelsAvailable(t *testing.T) {
	for _, k := range allKernels {
		t.Logf("%s kernel available: %v", k, kernelAvailable(k))
	}
	t.Logf("series8 runs the %s kernel", series8Kernel)
	if series8Kernel != bestKernel() {
		t.Errorf("series8 runs %s, want the fastest available, %s", series8Kernel, bestKernel())
	}
	if kernelAvailable(kernelAVX512) && !kernelAvailable(kernelAVX2) {
		t.Error("the 512-bit kernel is available without AVX2, which its CPUID check requires")
	}
}

// eachKernel runs f as one subtest per series kernel, named after it,
// with series8 switched to that kernel. Kernels this machine lacks are
// skipped; the Go kernel runs everywhere, so the fallback is exercised
// on machines that have a vector kernel too.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range allKernels {
		t.Run(k.String(), func(t *testing.T) {
			skipUnavailable(t, k)
			defer func(was kernelKind) { series8Kernel = was }(series8Kernel)
			series8Kernel = k
			f(t)
		})
	}
}

// dense puts vector kernel k behind the seriesKernel contract, starting
// from the dense dist.
func dense(k vecKernel) seriesKernel {
	return func(rows *[512]float64, dist, next *[64]float64, marg, proj, tab []float64, argmax []int32) {
		k(&rows[0], &dist[0], &next[0], -1, len(marg)/8, &marg[0], &proj[0], &tab[0], &argmax[0], &rows[0])
	}
}

// kindedKernel is a series kernel and the kind it is.
type kindedKernel struct {
	kind kernelKind
	run  seriesKernel
}

// seriesKernels lists every series kernel, whether this machine can run
// it or not.
func seriesKernels() []kindedKernel {
	var ks []kindedKernel
	for _, vk := range vectorKernels {
		ks = append(ks, kindedKernel{vk.kind, dense(vk.run)})
	}
	return append(ks, kindedKernel{kernelGo, twoDepSeries8Go})
}

// windowOut is one 24-step window's kernel outputs.
type windowOut struct {
	marg, proj [24 * 8]float64
	argmax     [24]int32
	dist, next [64]float64
}

// runWindow runs kernel k over a 24-step window from copies of the
// inputs, with every output poisoned first so that one it fails to
// write shows.
func runWindow(k seriesKernel, rows *[512]float64, dist *[64]float64, tab *[64]float64) *windowOut {
	o := &windowOut{dist: *dist}
	for i := range o.marg {
		o.marg[i], o.proj[i] = math.NaN(), math.NaN()
	}
	for i := range o.argmax {
		o.argmax[i] = -1
	}
	k(rows, &o.dist, &o.next, o.marg[:], o.proj[:], tab[:], o.argmax[:])
	return o
}

// sameBits returns the first index where a and b differ in their bits,
// or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkSeries8 requires series kernel k to reproduce the Go series
// kernel bit for bit: every marginal, projection, argmax and both final
// distribution buffers.
func checkSeries8(t *testing.T, k seriesKernel, seed int64, shape int, rootLike bool) {
	t.Helper()
	rows, dist := stepInputs(seed, shape)
	tab := tabInput(rand.New(rand.NewSource(^seed)), rootLike)
	want := runWindow(twoDepSeries8Go, rows, dist, tab)
	got := runWindow(k, rows, dist, tab)
	for _, out := range []struct {
		name      string
		want, got []float64
	}{
		{"marg", want.marg[:], got.marg[:]},
		{"proj", want.proj[:], got.proj[:]},
		{"dist", want.dist[:], got.dist[:]},
		{"next", want.next[:], got.next[:]},
	} {
		if i := sameBits(out.want, out.got); i >= 0 {
			t.Fatalf("seed %d shape %d: %s[%d] go %v (%#x) vs vector %v (%#x)", seed, shape, out.name, i,
				out.want[i], math.Float64bits(out.want[i]), out.got[i], math.Float64bits(out.got[i]))
		}
	}
	if want.argmax != got.argmax {
		t.Fatalf("seed %d shape %d: argmax go %v vs vector %v", seed, shape, want.argmax, got.argmax)
	}
}

// TestTwoDepSeries8MatchesGo pins every vector series kernel to the Go
// series kernel. Like TestTwoDepStep8MatchesGo it holds for the default
// (GOAMD64=v1) build only.
func TestTwoDepSeries8MatchesGo(t *testing.T) {
	eachVectorKernel(t, func(t *testing.T, k vecKernel) {
		for shape := 0; shape < numShapes; shape++ {
			for seed := int64(1); seed <= 40; seed++ {
				checkSeries8(t, dense(k), seed, shape, seed%4 == 0)
			}
		}
	})
}

// startSteps are the window lengths the start-state checks run: each
// prologue step alone, the first dense step after them, and a full
// window.
var startSteps = []int{1, 2, 3, 24}

// checkStartState requires vector kernel k, entered at start state
// start = prev*8+cur, to reproduce bit for bit the Go series kernel run
// from the one-hot dist at start, over steps steps of the given shape's
// rows: every marginal, with a table every projection and argmax, and
// each distribution buffer a step wrote (dist is the start entry's
// scratch, so it is compared from step 2 on). Every output of k is
// poisoned with NaN first, dist included.
func checkStartState(t *testing.T, k vecKernel, seed int64, shape, start, steps int, withTab bool) {
	t.Helper()
	rows, _ := stepInputs(seed, shape)
	want, got := &windowOut{}, &windowOut{}
	want.dist[start] = 1
	for _, out := range [][]float64{got.dist[:], got.next[:], got.marg[:], got.proj[:]} {
		for i := range out {
			out[i] = math.NaN()
		}
	}
	for i := range got.argmax {
		want.argmax[i], got.argmax[i] = -1, -1
	}
	n := steps * 8
	var tab *[64]float64
	if withTab {
		tab = tabInput(rand.New(rand.NewSource(^seed)), seed%4 == 0)
		twoDepSeries8Go(rows, &want.dist, &want.next, want.marg[:n], want.proj[:n], tab[:], want.argmax[:steps])
		k(&rows[0], &got.dist[0], &got.next[0], start, steps, &got.marg[0], &got.proj[0], &tab[0], &got.argmax[0], &rows[0])
	} else {
		twoDepSeries8Go(rows, &want.dist, &want.next, want.marg[:n], nil, nil, nil)
		k(&rows[0], &got.dist[0], &got.next[0], start, steps, &got.marg[0], nil, nil, nil, &rows[0])
	}
	type output struct {
		name      string
		want, got []float64
	}
	outs := []output{{"marg", want.marg[:n], got.marg[:n]}, {"next", want.next[:], got.next[:]}}
	if steps >= 2 {
		outs = append(outs, output{"dist", want.dist[:], got.dist[:]})
	}
	if withTab {
		outs = append(outs, output{"proj", want.proj[:n], got.proj[:n]})
	}
	for _, out := range outs {
		if i := sameBits(out.want, out.got); i >= 0 {
			t.Fatalf("seed %d shape %d start %d steps %d table %v: %s[%d] go %v (%#x) vs vector %v (%#x)",
				seed, shape, start, steps, withTab, out.name, i,
				out.want[i], math.Float64bits(out.want[i]), out.got[i], math.Float64bits(out.got[i]))
		}
	}
	if want.argmax != got.argmax {
		t.Fatalf("seed %d shape %d start %d steps %d table %v: argmax go %v vs vector %v",
			seed, shape, start, steps, withTab, want.argmax, got.argmax)
	}
}

// TestSeries8StartStateMatchesGo pins every vector kernel's start-state
// entry, the window path's, to the Go series kernel run from the
// one-hot dist: every start state, each prologue step alone, the first
// dense step after them and a full window, over every finite-row shape,
// with and without a table. The NaN-row shape is outside the entry's
// contract; TestTwoDepSeries8MatchesGo covers it through the dense
// entry.
func TestSeries8StartStateMatchesGo(t *testing.T) {
	eachVectorKernel(t, func(t *testing.T, k vecKernel) {
		for shape := 0; shape < numShapes; shape++ {
			if shape == shapeNaN {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				for start := 0; start < 64; start++ {
					for _, steps := range startSteps {
						checkStartState(t, k, seed, shape, start, steps, false)
						checkStartState(t, k, seed, shape, start, steps, true)
					}
				}
			}
		}
	})
}

// scoreModel builds a model over attrs 8-bin attributes from random
// tables: a random tree, or naive. Some cells are the smallest
// denormal, so that some log ratios are near ±745 and some are +Inf.
func scoreModel(t testing.TB, rng *rand.Rand, attrs int, naive bool) *bayes.Model {
	t.Helper()
	s := bayes.Snapshot{ClassCount: [2]float64{float64(1 + rng.Intn(500)), float64(1 + rng.Intn(50))}}
	s.Total = s.ClassCount[0] + s.ClassCount[1]
	for i := 0; i < attrs; i++ {
		parent := -1
		if i > 0 && !naive {
			parent = rng.Intn(i)
		}
		s.Bins = append(s.Bins, 8)
		s.Parent = append(s.Parent, parent)
		rowsN := 1
		if parent >= 0 {
			rowsN = 8
		}
		var cpt [2][][]float64
		for c := range cpt {
			for u := 0; u < rowsN; u++ {
				row := make([]float64, 8)
				for v := range row {
					row[v] = 0.001 + 0.999*rng.Float64()
					if rng.Intn(40) == 0 {
						row[v] = math.SmallestNonzeroFloat64
					}
				}
				cpt[c] = append(cpt[c], row)
			}
		}
		s.CPT = append(s.CPT, cpt)
	}
	m, err := bayes.FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkWindowScore runs one chain's window per attribute of a random
// model through kernel k, projecting through the model's transposed
// log-ratio tables, and requires every step's score — the prior plus
// each attribute's lane at its parent's argmax — and WindowScore's
// maximum to equal MarginalScoreFast's over the same marginals, by
// bits.
func checkWindowScore(t *testing.T, k seriesKernel, seed int64, shape int, naive bool) {
	t.Helper()
	const attrs, steps = 5, 24
	rng := rand.New(rand.NewSource(seed))
	m := scoreModel(t, rng, attrs, naive)
	lr := m.LogRatios()
	if lr.Lanes() != 8 {
		t.Fatalf("lanes %d, want 8", lr.Lanes())
	}
	outs := make([]*windowOut, attrs)
	proj := make([]float64, 0, attrs*steps*8)
	argmax := make([]int32, 0, attrs*steps)
	for i := range outs {
		rows, dist := stepInputs(seed*16+int64(i), shape)
		outs[i] = runWindow(k, rows, dist, (*[64]float64)(lr.Tables()[i]))
		proj = append(proj, outs[i].proj[:]...)
		argmax = append(argmax, outs[i].argmax[:]...)
	}
	var snap bayes.Snapshot
	m.SnapshotInto(&snap)
	parents := snap.Parent
	marginals := make([][]float64, attrs)
	var sc bayes.Scratch
	var best float64
	bestStep := 0
	for s := 0; s < steps; s++ {
		score := m.ClassPrior()
		for i, o := range outs {
			marginals[i] = o.marg[s*8 : s*8+8]
			u := 0
			if p := parents[i]; p >= 0 {
				u = int(outs[p].argmax[s])
			}
			score += o.proj[s*8+u]
		}
		want := m.MarginalScoreFast(marginals, lr, &sc)
		if math.Float64bits(score) != math.Float64bits(want) {
			t.Fatalf("seed %d shape %d naive %v step %d: projected score %v (%#x), MarginalScoreFast %v (%#x)",
				seed, shape, naive, s, score, math.Float64bits(score), want, math.Float64bits(want))
		}
		if s == 0 || want > best {
			best, bestStep = want, s
		}
	}
	got, gotStep := lr.WindowScore(proj, argmax, steps)
	if math.Float64bits(got) != math.Float64bits(best) || gotStep != bestStep {
		t.Fatalf("seed %d shape %d naive %v: WindowScore %v at step %d, per-step MarginalScoreFast max %v at step %d",
			seed, shape, naive, got, gotStep, best, bestStep)
	}
}

// TestSeries8MatchesMarginalScoreFast scores windows of every input
// shape, under TAN and naive models, through every series kernel this
// machine can run, against the per-step scalar scorer.
func TestSeries8MatchesMarginalScoreFast(t *testing.T) {
	for _, k := range seriesKernels() {
		t.Run(k.kind.String(), func(t *testing.T) {
			skipUnavailable(t, k.kind)
			for shape := 0; shape < numShapes; shape++ {
				for seed := int64(1); seed <= 12; seed++ {
					checkWindowScore(t, k.run, seed, shape, seed%3 == 0)
				}
			}
		})
	}
}

func FuzzTwoDepSeries8(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(200+shape), uint8(shape), shape%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, naive bool) {
		sh := int(shape % numShapes)
		for _, k := range availableVectorKernels() {
			checkSeries8(t, dense(k), seed, sh, naive)
			if sh != shapeNaN {
				// The start state and window length come from the seed.
				start, steps := int(uint64(seed)%64), startSteps[uint64(seed)/64%uint64(len(startSteps))]
				checkStartState(t, k, seed, sh, start, steps, !naive)
			}
		}
		for _, k := range seriesKernels() {
			if kernelAvailable(k.kind) {
				checkWindowScore(t, k.run, seed, sh, naive)
			}
		}
	})
}

// TestProjectSeriesBatchMatchesMarginalScoreFast drives trained chains
// through ProjectSeriesBatch under every kernel: 8-state 2-dependent
// chains take the series kernel, 5-state ones and first-order chains
// the Go projection. Every step's marginals must equal PredictSeries'
// and the window score MarginalScoreFast's maximum, by bits.
func TestProjectSeriesBatchMatchesMarginalScoreFast(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, tc := range []struct {
			name   string
			states int
			simple bool
			naive  bool
		}{
			{"twodep8", 8, false, false},
			{"twodep8-naive", 8, false, true},
			{"twodep5", 5, false, false},
			{"simple8", 8, true, false},
		} {
			t.Run(tc.name, func(t *testing.T) {
				checkProjectSeriesBatch(t, tc.states, tc.simple, tc.naive)
			})
		}
	})
}

func checkProjectSeriesBatch(t *testing.T, states int, simple, naive bool) {
	const attrs, steps = 6, 24
	rng := rand.New(rand.NewSource(int64(states)))
	// Train a model over correlated bins, so that the tree is not
	// trivial, with both classes present.
	bins := make([]int, attrs)
	for i := range bins {
		bins[i] = states
	}
	table, err := bayes.NewCountTable(bins)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 400; n++ {
		vals := make([]int, attrs)
		base := rng.Intn(states)
		for i := range vals {
			vals[i] = (base + rng.Intn(2)*i) % states
		}
		if err := table.Add(vals, base >= states-2); err != nil {
			t.Fatal(err)
		}
	}
	m, err := bayes.TrainFromCounts(table, bayes.Options{Naive: naive})
	if err != nil {
		t.Fatal(err)
	}
	lr := m.LogRatios()
	chains := make([]Predictor, attrs)
	for i := range chains {
		if simple {
			chains[i], _ = NewSimpleChain(states)
		} else {
			chains[i], _ = NewTwoDepChain(states)
		}
	}
	var arena BatchArena
	var sc bayes.Scratch
	marginals := make([][]float64, attrs)
	for round := 0; round < 30; round++ {
		for i, ch := range chains {
			for k := 0; k < 1+rng.Intn(8); k++ {
				if err := ch.Observe((round + i + rng.Intn(3)) % states); err != nil {
					t.Fatal(err)
				}
			}
		}
		ProjectSeriesBatch(chains, steps, lr.Tables(), lr.Lanes(), &arena)
		var best float64
		bestStep := 0
		for s := 0; s < steps; s++ {
			for i, ch := range chains {
				marginals[i] = arena.Series(i)[s]
				if j := sameBits(ch.PredictSeries(steps)[s], marginals[i]); j >= 0 {
					t.Fatalf("round %d chain %d step %d: marginal[%d] differs from PredictSeries", round, i, s, j)
				}
			}
			want := m.MarginalScoreFast(marginals, lr, &sc)
			if s == 0 || want > best {
				best, bestStep = want, s
			}
		}
		got, gotStep := lr.WindowScore(arena.Projections(), arena.Argmaxes(), steps)
		if math.Float64bits(got) != math.Float64bits(best) || gotStep != bestStep {
			t.Fatalf("round %d: WindowScore %v at step %d, MarginalScoreFast max %v at step %d",
				round, got, gotStep, best, bestStep)
		}
	}
}
