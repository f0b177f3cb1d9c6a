//go:build !amd64

package metrics

// Only amd64 has the vector column sort; everything else selects.
const sort128Available = false

func sort128AVX512(dst *[SortLen]float64, src *float64, n int) (nan, negZero bool) {
	panic("metrics: sort128AVX512 called without AVX-512")
}
