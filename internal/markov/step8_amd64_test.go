package markov

import (
	"math"
	"math/rand"
	"testing"
)

// eachKernel runs f under every step kernel this machine can run: the
// vector kernel when CPUID selected it, then the Go kernel forced, so
// the fallback is exercised on machines that have AVX2.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	if useAVX2 {
		t.Run("avx2", f)
		useAVX2 = false
		t.Cleanup(func() { useAVX2 = true })
	}
	t.Run("go", f)
}

// The dist shapes the differential test and the fuzz corpus cover.
const (
	shapeOneHot    = iota // step 1: all mass on the chain's position
	shapeSingleRow        // step 2: one source-prev row populated
	shapeDense
	shapeZeros     // dense with exact zeros scattered through it
	shapeDenormals // dense with denormals scattered through it
	numShapes
)

// stepInputs draws random row-stochastic rows (some cells exactly zero)
// and a combined-state distribution of the given shape.
func stepInputs(seed int64, shape int) (*[512]float64, *[64]float64) {
	rng := rand.New(rand.NewSource(seed))
	var rows [512]float64
	for idx := 0; idx < 64; idx++ {
		row := rows[idx*8 : idx*8+8]
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
	case shapeOneHot:
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
	return &rows, &dist
}

// checkStep8 chains 24 steps through both kernels from the same inputs
// and requires every next and marg float64 to agree bit for bit.
func checkStep8(t *testing.T, seed int64, shape int) {
	t.Helper()
	rows, dist := stepInputs(seed, shape)
	goDist, vecDist := *dist, *dist
	for step := 0; step < 24; step++ {
		var goNext, vecNext [64]float64
		var goMarg, vecMarg [8]float64
		// Poison the vector kernel's outputs: it must write every cell.
		for i := range vecNext {
			vecNext[i] = math.NaN()
		}
		for j := range vecMarg {
			vecMarg[j] = math.NaN()
		}
		twoDepStep8Go(rows, &goDist, &goNext, &goMarg)
		twoDepStep8AVX2(&rows[0], &vecDist[0], &vecNext[0], &vecMarg[0])
		for _, out := range []struct {
			name        string
			scalar, vec []float64
		}{{"next", goNext[:], vecNext[:]}, {"marg", goMarg[:], vecMarg[:]}} {
			for i, want := range out.scalar {
				if got := out.vec[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d shape %d step %d: %s[%d] go %v (%#x) vs avx2 %v (%#x)", seed, shape, step,
						out.name, i, want, math.Float64bits(want), got, math.Float64bits(got))
				}
			}
		}
		goDist, vecDist = goNext, vecNext
	}
}

// TestTwoDepStep8MatchesGo pins the vector kernel to the Go kernel. It
// holds for a default (GOAMD64=v1) build; from v3 up the compiler fuses
// the Go kernel's multiply-adds, which also breaks the tick goldens.
func TestTwoDepStep8MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	for shape := 0; shape < numShapes; shape++ {
		for seed := int64(1); seed <= 40; seed++ {
			checkStep8(t, seed, shape)
		}
	}
}

func FuzzTwoDepStep8(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 on this machine")
	}
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(100+shape), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkStep8(t, seed, int(shape%numShapes))
	})
}
