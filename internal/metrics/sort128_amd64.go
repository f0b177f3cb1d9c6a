package metrics

import "prepare/internal/cpufeat"

//go:generate go run sort128_gen.go

// sort128Available reports whether this machine can run sort128AVX512:
// CPUID's verdict, taken once.
var sort128Available = cpufeat.AVX512

// sort128AVX512 reports whether xs holds a NaN and whether it holds a
// -0, and when it holds no NaN sorts it ascending in place. It is
// implemented in sort128_amd64.s, which sort128_gen.go writes.
//
//go:noescape
func sort128AVX512(xs *[sortLen]float64) (nan, negZero bool)
