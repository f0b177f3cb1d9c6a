package markov

import "prepare/internal/cpufeat"

// kernelAvailable reports whether this machine can run kernel k.
func kernelAvailable(k kernelKind) bool {
	switch k {
	case kernelAVX512:
		return cpufeat.AVX512
	case kernelAVX2:
		return cpufeat.AVX2
	}
	return true
}

// twoDepSeries8AVX2 is implemented in step8_amd64.s and
// twoDepSeries8AVX512 in step8_avx512_amd64.s.

// twoDepSeries8AVX512 is twoDepSeries8Go over raw pointers: steps
// propagation steps from dist (ping-ponging with next), or with
// start >= 0 from the one-hot distribution at start, marginals to
// marg[s*8:], and when proj is non-nil the projections through the
// [64]float64 tab to proj[s*8:] and the argmaxes to argmax[s]. The
// start-state entry requires finite rows (see the header of
// step8_amd64.s). It prefetches the 4224 bytes from pre onwards, three
// cache lines in each of the first 22 steps; pre must point into live
// memory (the prefetches cannot fault, but a wild address can cost a
// page walk).
//
//go:noescape
func twoDepSeries8AVX512(rows, dist, next *float64, start, steps int, marg, proj, tab *float64, argmax *int32, pre *float64)

// twoDepSeries8AVX2 is twoDepSeries8AVX512 on 256-bit registers.
//
//go:noescape
func twoDepSeries8AVX2(rows, dist, next *float64, start, steps int, marg, proj, tab *float64, argmax *int32, pre *float64)
