// Package cpufeat reports, once per process, which x86 vector
// extensions both the CPU and the operating system support. It is the
// one CPUID probe the vector kernels (markov's series kernels, metrics'
// column sort) pick from, so they agree on what a machine can run.
package cpufeat

// AVX2 reports CPU and OS support for 256-bit AVX2; AVX512 for AVX2
// plus AVX-512F with the opmask and ZMM state saved. Both are false off
// amd64.
var AVX2, AVX512 = hasAVX2(), hasAVX512()
