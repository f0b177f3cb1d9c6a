package detector

import "prepare/internal/cpufeat"

// laneAVX512Available reports whether this machine can run
// holtStepAVX512, transposeAVX512 and tickLineAVX512: CPUID's verdict,
// taken once.
var laneAVX512Available = cpufeat.AVX512

// holtStepAVX512 is holtStep over lanes lanes, eight to a ZMM register,
// the last register masked. It is implemented in lanes_amd64.s.
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

// tickLineAVX512 is tickLineGo over lanes lanes, eight to a ZMM
// register, the last register masked: x and the state lines start at
// the pointers given, sums holds three runs of acc lanes and flags two
// runs of flagStride bytes, and the scalars are tickParams' fields
// (rate and rateAbs are its g and gk). With score unset, sums and flags
// may be nil. It is implemented in lanes_amd64.s.
//
//go:noescape
func tickLineAVX512(x, level, trend, center, scale, scale0 *float64, n *int64, sums *float64, acc int, flags *uint8, flagStride, lanes int, a, b, rate, rateAbs, slack, h, hm float64, adapt, score bool)
