package markov

import (
	"math"
	"testing"
)

// checkStep8 chains 24 steps through the Go step kernel and vector
// series kernel k run one step a call, from the same inputs, and
// requires every next and marg float64 to agree bit for bit.
func checkStep8(t *testing.T, k vecKernel, seed int64, shape int) {
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
		k(&rows[0], &vecDist[0], &vecNext[0], -1, 1, &vecMarg[0], nil, nil, nil, &rows[0])
		for _, out := range []struct {
			name        string
			scalar, vec []float64
		}{{"next", goNext[:], vecNext[:]}, {"marg", goMarg[:], vecMarg[:]}} {
			for i, want := range out.scalar {
				if got := out.vec[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d shape %d step %d: %s[%d] go %v (%#x) vs vector %v (%#x)", seed, shape, step,
						out.name, i, want, math.Float64bits(want), got, math.Float64bits(got))
				}
			}
		}
		goDist, vecDist = goNext, vecNext
	}
}

// TestTwoDepStep8MatchesGo pins every vector kernel's step to the Go
// kernel's. It holds for a default (GOAMD64=v1) build; from v3 up the
// compiler fuses the Go kernel's multiply-adds, which also breaks the
// tick goldens.
func TestTwoDepStep8MatchesGo(t *testing.T) {
	eachVectorKernel(t, func(t *testing.T, k vecKernel) {
		for shape := 0; shape < numShapes; shape++ {
			for seed := int64(1); seed <= 40; seed++ {
				checkStep8(t, k, seed, shape)
			}
		}
	})
}

func FuzzTwoDepStep8(f *testing.F) {
	if len(availableVectorKernels()) == 0 {
		f.Skip("no vector kernel on this machine")
	}
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(100+shape), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		for _, vk := range availableVectorKernels() {
			checkStep8(t, vk, seed, int(shape%numShapes))
		}
	})
}
