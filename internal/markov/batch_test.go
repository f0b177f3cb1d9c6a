package markov

import (
	"math"
	"math/rand"
	"testing"
)

// chainPair builds a scalar/batch pair of identically trained chains.
func chainPair(t *testing.T, order, states int, seq []int) (Predictor, Predictor) {
	t.Helper()
	build := func() Predictor {
		var (
			ch  Predictor
			err error
		)
		if order == 1 {
			ch, err = NewSimpleChain(states)
		} else {
			ch, err = NewTwoDepChain(states)
		}
		if err != nil {
			t.Fatalf("new chain: %v", err)
		}
		for _, b := range seq {
			if err := ch.Observe(b); err != nil {
				t.Fatalf("observe: %v", err)
			}
		}
		return ch
	}
	return build(), build()
}

// assertSeriesBitIdentical compares a scalar PredictSeries result with a
// batch PredictSeriesInto result bit for bit.
func assertSeriesBitIdentical(t *testing.T, scalar, batch [][]float64, label string) {
	t.Helper()
	if len(scalar) != len(batch) {
		t.Fatalf("%s: step count %d vs %d", label, len(scalar), len(batch))
	}
	for s := range scalar {
		for j := range scalar[s] {
			a, b := scalar[s][j], batch[s][j]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: step %d bin %d: scalar %v (%#x) vs batch %v (%#x)",
					label, s, j, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
}

// TestPredictSeriesIntoMatchesPredictSeries drives random observation
// streams through scalar and batch chains, interleaving predictions with
// further observations so the incremental row refresh is exercised, and
// requires bit-identical series throughout.
func TestPredictSeriesIntoMatchesPredictSeries(t *testing.T) {
	for _, tc := range []struct {
		name          string
		order, states int
	}{
		{"simple-8", 1, 8},
		{"twodep-8", 2, 8},
		{"simple-5", 1, 5},
		{"twodep-5", 2, 5},
		{"twodep-12", 2, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachKernel(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				seq := make([]int, 200)
				for i := range seq {
					// A sticky walk concentrates mass on few combined states,
					// leaving plenty of backoff rows to get right.
					if i > 0 && rng.Float64() < 0.6 {
						seq[i] = seq[i-1]
					} else {
						seq[i] = rng.Intn(tc.states)
					}
				}
				scalar, batch := chainPair(t, tc.order, tc.states, seq)
				out := seriesSlices(24, tc.states)
				for round := 0; round < 30; round++ {
					steps := 1 + rng.Intn(24)
					batch.PredictSeriesInto(out[:steps])
					assertSeriesBitIdentical(t, scalar.PredictSeries(steps), out[:steps], tc.name)
					// Observe a few more bins on both chains between rounds so
					// dirty-column tracking sees single-row invalidations.
					for k := 0; k < 1+rng.Intn(3); k++ {
						b := rng.Intn(tc.states)
						if err := scalar.Observe(b); err != nil {
							t.Fatal(err)
						}
						if err := batch.Observe(b); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		})
	}
}

// TestPredictSeriesIntoUntrained covers the uniform fallbacks.
func TestPredictSeriesIntoUntrained(t *testing.T) {
	sc, _ := NewSimpleChain(8)
	td, _ := NewTwoDepChain(8)
	tdOne, _ := NewTwoDepChain(8)
	if err := tdOne.Observe(3); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []Predictor{sc, td, tdOne} {
		out := seriesSlices(5, 8)
		ch.PredictSeriesInto(out)
		assertSeriesBitIdentical(t, ch.PredictSeries(5), out, "untrained")
	}
}

// TestPredictSeriesBatchSharedArena runs a fleet of chains through one
// arena and checks every chain against its scalar twin, including
// steady-state allocation freedom.
func TestPredictSeriesBatchSharedArena(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		const nChains, steps = 13, 24
		scalars := make([]Predictor, nChains)
		batches := make([]Predictor, nChains)
		for i := range scalars {
			seq := make([]int, 150)
			for k := range seq {
				seq[k] = rng.Intn(8)
			}
			scalars[i], batches[i] = chainPair(t, 2, 8, seq)
		}
		var arena BatchArena
		series := PredictSeriesBatch(batches, steps, &arena)
		for i := range scalars {
			assertSeriesBitIdentical(t, scalars[i].PredictSeries(steps), series[i], "fleet")
		}
		// Steady state: repeated batch calls must not allocate.
		allocs := testing.AllocsPerRun(20, func() {
			PredictSeriesBatch(batches, steps, &arena)
		})
		if allocs != 0 {
			t.Fatalf("PredictSeriesBatch steady state allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestRefreshRowsAfterSnapshotRestore makes sure a chain rebuilt from a
// snapshot (counts copied in without Observe calls) still refreshes all
// rows on its first batch prediction.
func TestRefreshRowsAfterSnapshotRestore(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		orig, _ := NewTwoDepChain(8)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 120; i++ {
			if err := orig.Observe(rng.Intn(8)); err != nil {
				t.Fatal(err)
			}
		}
		restored, err := FromSnapshot(orig.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		out := seriesSlices(10, 8)
		restored.PredictSeriesInto(out)
		assertSeriesBitIdentical(t, orig.PredictSeries(10), out, "restored")
	})
}

// rowInto is the row-at-a-time smoothing refreshColumn replaced, kept as
// its oracle: the Laplace-smoothed next-bin distribution of combined
// state (prev, cur), backing off to the aggregate over all prev with
// the same cur when the combined state was never observed.
func (c *TwoDepChain) rowInto(prev, cur int, dst []float64) {
	idx := prev*c.states + cur
	total := 0.0
	for _, n := range c.counts[idx] {
		total += n
	}
	if total > 0 {
		for j, n := range c.counts[idx] {
			dst[j] = (n + laplaceAlpha) / (total + laplaceAlpha*float64(c.states))
		}
		return
	}
	clear(dst)
	aggTotal := 0.0
	for p := 0; p < c.states; p++ {
		for j, n := range c.counts[p*c.states+cur] {
			dst[j] += n
			aggTotal += n
		}
	}
	for j := range dst {
		dst[j] = (dst[j] + laplaceAlpha) / (aggTotal + laplaceAlpha*float64(c.states))
	}
}

// TestRefreshColumnMatchesRowInto checks every refreshed row against the
// row-at-a-time oracle, by bits, refreshing incrementally as a random
// observation sequence grows. The sequence leaves the last column never
// observed and column 0 fully observed, with the rest mixed; 70 states
// take the dirtyAll path.
func TestRefreshColumnMatchesRowInto(t *testing.T) {
	for _, tc := range []struct{ states, rounds int }{{8, 60}, {5, 60}, {70, 2}} {
		states, last := tc.states, tc.states-1
		rng := rand.New(rand.NewSource(int64(states)))
		ch, err := NewTwoDepChain(states)
		if err != nil {
			t.Fatal(err)
		}
		observe := func(b int) {
			t.Helper()
			if err := ch.Observe(b); err != nil {
				t.Fatal(err)
			}
		}
		check := func() {
			t.Helper()
			ch.refreshRows()
			want := make([]float64, states)
			for idx := 0; idx < states*states; idx++ {
				got := ch.row(idx)
				ch.rowInto(idx/states, idx%states, want)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("states %d row (%d,%d) bin %d: refreshed %v vs rowInto %v",
							states, idx/states, idx%states, j, got[j], want[j])
					}
				}
			}
		}
		// The last bin occurs only as the very first observation, which
		// seeds the position without counting a transition: (last, 0) is
		// observed, column last never is. Then (p, 0) for every other p.
		observe(last)
		for p := 0; p < last; p++ {
			observe(0)
			observe(rng.Intn(last))
			if p%8 == 0 && states < 64 {
				check()
			}
			observe(p)
		}
		observe(0)
		observe(rng.Intn(last))
		check()
		for round := 0; round < tc.rounds; round++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				observe(rng.Intn(last))
			}
			check()
		}
		for p := 0; p < states; p++ {
			seen0, seenLast := 0.0, 0.0
			for j := 0; j < states; j++ {
				seen0 += ch.counts[p*states][j]
				seenLast += ch.counts[p*states+last][j]
			}
			if seen0 == 0 || seenLast != 0 {
				t.Fatalf("states %d prev %d: column 0 seen %v times (want > 0), column %d seen %v times (want 0)",
					states, p, seen0, last, seenLast)
			}
		}
	}
}

// BenchmarkTwoDepStep8 times one propagation step under each kernel.
func BenchmarkTwoDepStep8(b *testing.B) {
	ch, _ := NewTwoDepChain(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 240; i++ {
		if err := ch.Observe(rng.Intn(8)); err != nil {
			b.Fatal(err)
		}
	}
	out := seriesSlices(4, 8)
	ch.PredictSeriesInto(out) // refreshes the rows and leaves distA dense
	rows := (*[512]float64)(ch.rows)
	dist := (*[64]float64)(ch.distA)
	var next [64]float64
	var marg [8]float64
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			twoDepStep8Go(rows, dist, &next, &marg)
		}
	})
	b.Run("avx2", func(b *testing.B) {
		if !useAVX2 {
			b.Skip("no AVX2 on this machine")
		}
		for i := 0; i < b.N; i++ {
			twoDepStep8AVX2(&rows[0], &dist[0], &next[0], &marg[0])
		}
	})
}

// TestStepKernelAllocs pins every step kernel this machine can run at
// zero allocations.
func TestStepKernelAllocs(t *testing.T) {
	ch, _ := NewTwoDepChain(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 240; i++ {
		if err := ch.Observe(rng.Intn(8)); err != nil {
			t.Fatal(err)
		}
	}
	ch.PredictSeriesInto(seriesSlices(4, 8))
	rows := (*[512]float64)(ch.rows)
	dist := (*[64]float64)(ch.distA)
	var next [64]float64
	var marg [8]float64
	type kernel struct {
		name string
		step func()
	}
	kernels := []kernel{{"go", func() { twoDepStep8Go(rows, dist, &next, &marg) }}}
	if useAVX2 {
		kernels = append(kernels, kernel{"avx2", func() { twoDepStep8AVX2(&rows[0], &dist[0], &next[0], &marg[0]) }})
	}
	for _, k := range kernels {
		if allocs := testing.AllocsPerRun(100, k.step); allocs != 0 {
			t.Errorf("%s step kernel allocates %v/op, want 0", k.name, allocs)
		}
	}
}

func BenchmarkTwoDepChainPredictSeriesInto(b *testing.B) {
	ch, _ := NewTwoDepChain(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 240; i++ {
		if err := ch.Observe(rng.Intn(8)); err != nil {
			b.Fatal(err)
		}
	}
	out := seriesSlices(24, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.PredictSeriesInto(out)
	}
}

// BenchmarkTwoDepChainPredictSeriesIntoOnline interleaves one Observe
// per prediction, matching the control loop's steady state where each
// tick dirties one transition row before predicting.
func BenchmarkTwoDepChainPredictSeriesIntoOnline(b *testing.B) {
	ch, _ := NewTwoDepChain(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 240; i++ {
		if err := ch.Observe(rng.Intn(8)); err != nil {
			b.Fatal(err)
		}
	}
	out := seriesSlices(24, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Observe(i & 7); err != nil {
			b.Fatal(err)
		}
		ch.PredictSeriesInto(out)
	}
}

func BenchmarkSimpleChainPredictSeriesInto(b *testing.B) {
	ch, _ := NewSimpleChain(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 240; i++ {
		if err := ch.Observe(rng.Intn(8)); err != nil {
			b.Fatal(err)
		}
	}
	out := seriesSlices(24, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.PredictSeriesInto(out)
	}
}
