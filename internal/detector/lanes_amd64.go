package detector

import "prepare/internal/cpufeat"

// laneAVX512Available reports whether this machine can run
// holtStepAVX512 and transposeAVX512: CPUID's verdict, taken once.
var laneAVX512Available = cpufeat.AVX512

// holtStepAVX512 is holtStep over lanes lanes, eight to a ZMM register,
// the last register masked. rec and n are nil together. It is
// implemented in lanes_amd64.s.
//
//go:noescape
func holtStepAVX512(level, trend, x *float64, rec *bool, n *int64, lanes int, a, b float64)

// transposeAVX512 is transposeBlock over lanes lanes (1 to 8) and the
// first 8*groups held ticks, eight ticks at a time: idx holds each
// lane's next flat index into cols on entry and on return, and keep
// bit k%64 of word (k/64)*keepStride of each lane marks tick k kept. It
// is implemented in lanes_amd64.s.
//
//go:noescape
func transposeAVX512(cols *float64, idx *[FleetBlock]int64, lines *[]float64, groups, off int, keep *uint64, keepStride, lanes int)
