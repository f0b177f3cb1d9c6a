//go:build !amd64

package markov

// Only amd64 has a vector step kernel; everything else runs
// twoDepStep8Go.
const useAVX2 = false

func twoDepStep8AVX2(rows, dist, next, marg *float64) {
	panic("markov: twoDepStep8AVX2 called without AVX2")
}
