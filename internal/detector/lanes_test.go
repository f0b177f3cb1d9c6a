package detector

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// laneKinds is every lane kernel, fastest first.
var laneKinds = []laneKind{laneAVX512, laneGo}

func laneKindAvailable(k laneKind) bool { return k == laneGo || laneAVX512Available }

// eachLaneKernel runs f as one subtest per kernel, named after it, with
// the lane functions switched to that kernel. A kernel this machine lacks is
// skipped; Go runs everywhere.
func eachLaneKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range laneKinds {
		t.Run(k.String(), func(t *testing.T) {
			if !laneKindAvailable(k) {
				t.Skipf("the %s Holt kernel is not available on this machine", k)
			}
			withLaneKernel(k, func() { f(t) })
		})
	}
}

// withLaneKernel runs f with the lane functions switched to kernel k.
func withLaneKernel(k laneKind, f func()) {
	defer func(was laneKind) { laneKernel = was }(laneKernel)
	laneKernel = k
	f()
}

// TestLaneKernelAvailable logs the kernel CPUID picked, so a test log
// shows whether the vector kernels' tests ran or were skipped.
func TestLaneKernelAvailable(t *testing.T) {
	t.Logf("holtStep, transposeBlock and the ewma fleet tick run %s", laneKernel)
	if laneKernel != bestLaneKernel() {
		t.Errorf("the lane kernels run %s, want the fastest available, %s", laneKernel, bestLaneKernel())
	}
}

// holtValue draws a lane value: mostly normals, with ±0, ±Inf,
// subnormals and NaNs of two payloads (math.NaN's and the x86 default
// an Inf-Inf makes), so NaNs meet NaNs inside the step.
func holtValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Float64frombits(0xfff8000000000000)
	case 2:
		return math.Inf(1 - 2*rng.Intn(2))
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 5e-324
	default:
		return rng.NormFloat64() * 100
	}
}

// TestHoltStepKernelsAgree runs every kernel against holt, the scalar
// step, one lane at a time, over 0 to 40 lanes (whole and partial
// registers), with random recorded masks, for 30 ticks of values
// holtValue draws, and requires the same count and the same bits in
// every level and trend, a NaN's payload aside (see holt).
func TestHoltStepKernelsAgree(t *testing.T) {
	eachLaneKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for lanes := 0; lanes <= 40; lanes++ {
			checkHoltStep(t, rng, lanes)
		}
	})
}

// sameFloat reports whether x and y have the same bits or are both NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// checkHoltStep runs holtStep and the scalar reference side by side for
// 30 ticks over lanes lanes, with random recorded masks.
func checkHoltStep(t *testing.T, rng *rand.Rand, lanes int) {
	t.Helper()
	const a, b = 0.3, 0.1
	level, trend := make([]float64, lanes), make([]float64, lanes)
	for i := range level {
		level[i], trend[i] = holtValue(rng), holtValue(rng)
	}
	wantL, wantT := slices.Clone(level), slices.Clone(trend)
	n, wantN := make([]int64, lanes), make([]int64, lanes)
	x, rec := make([]float64, lanes), make([]bool, lanes)
	for tick := 0; tick < 30; tick++ {
		for i := range x {
			x[i] = holtValue(rng)
			rec[i] = rng.Intn(3) > 0
		}
		holtStep(level, trend, x, rec, n, a, b)
		for i, v := range x {
			switch {
			case !rec[i]:
				continue
			case wantN[i] == 0:
				wantL[i], wantT[i] = v, 0
			default:
				wantL[i], wantT[i] = holt(wantL[i], wantT[i], v, a, b)
			}
			wantN[i]++
		}
		for i := range x {
			if !sameFloat(level[i], wantL[i]) || !sameFloat(trend[i], wantT[i]) || n[i] != wantN[i] {
				t.Fatalf("%s, %d lanes, tick %d, lane %d: level, trend, n = %#x, %#x, %d, want %#x, %#x, %d",
					laneKernel, lanes, tick, i, math.Float64bits(level[i]), math.Float64bits(trend[i]), n[i],
					math.Float64bits(wantL[i]), math.Float64bits(wantT[i]), wantN[i])
			}
		}
	}
}
