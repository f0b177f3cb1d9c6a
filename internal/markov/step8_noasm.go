//go:build !amd64

package markov

// Only amd64 has vector series kernels; everything else runs
// twoDepSeries8Go.
func kernelAvailable(k kernelKind) bool { return k == kernelGo }

func twoDepSeries8AVX512(rows, dist, next *float64, start, steps int, marg, proj, tab *float64, argmax *int32, pre *float64) {
	panic("markov: twoDepSeries8AVX512 called without AVX-512")
}

func twoDepSeries8AVX2(rows, dist, next *float64, start, steps int, marg, proj, tab *float64, argmax *int32, pre *float64) {
	panic("markov: twoDepSeries8AVX2 called without AVX2")
}
