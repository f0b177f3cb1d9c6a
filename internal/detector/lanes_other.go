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
