//go:build !amd64

package markov

// Only amd64 has a vector series kernel; everything else runs
// twoDepSeries8Go.
const useAVX2 = false

func twoDepSeries8AVX2(rows, dist, next *float64, steps int, marg, proj, tab *float64, argmax *int32, pre *float64) {
	panic("markov: twoDepSeries8AVX2 called without AVX2")
}
