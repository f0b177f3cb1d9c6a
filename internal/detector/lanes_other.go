//go:build !amd64

package detector

// Only amd64 has the vector lane kernels; everything else runs Go.
const laneAVX512Available = false

func holtStepAVX512(level, trend, x *float64, rec *bool, n *int64, lanes int, a, b float64) {
	panic("detector: holtStepAVX512 called without AVX-512")
}

func transposeAVX512(cols *float64, idx *[FleetBlock]int64, lines *[]float64, groups, off int, keep *uint64, keepStride, lanes int) {
	panic("detector: transposeAVX512 called without AVX-512")
}

func tickLineAVX512(x, level, trend, center, scale, scale0 *float64, n *int64, sums *float64, acc int, flags *uint8, flagStride, lanes int, a, b, rate, rateAbs, slack, h, hm float64, adapt, score bool) {
	panic("detector: tickLineAVX512 called without AVX-512")
}
