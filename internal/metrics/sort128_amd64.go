package metrics

import "prepare/internal/cpufeat"

//go:generate go run sort128_gen.go

// sort128Available reports whether this machine can run sort128AVX512:
// CPUID's verdict, taken once.
var sort128Available = cpufeat.AVX512

// sort128AVX512 reports whether the n values at src (n <= SortLen)
// hold a NaN and whether they hold a -0, and when they hold no NaN
// writes them to dst sorted ascending, +Inf filling dst past them. It
// reads nothing past src's n values and writes nothing to src. It is
// implemented in sort128_amd64.s, which sort128_gen.go writes.
//
//go:noescape
func sort128AVX512(dst *[SortLen]float64, src *float64, n int) (nan, negZero bool)
