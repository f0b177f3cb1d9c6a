package markov

// useAVX2 selects the vector series kernel in series8. It is decided
// once from CPUID; machines without AVX2 run twoDepSeries8Go, whose
// output the vector kernel reproduces bit for bit
// (TestTwoDepSeries8MatchesGo).
var useAVX2 = cpuHasAVX2()

// Both are implemented in step8_amd64.s.

func cpuHasAVX2() bool

// twoDepSeries8AVX2 is twoDepSeries8Go over raw pointers: steps
// propagation steps from dist (ping-ponging with next), marginals to
// marg[s*8:], and when proj is non-nil the projections through the
// [64]float64 tab to proj[s*8:] and the argmaxes to argmax[s]. It
// prefetches the 4224 bytes from pre onwards, three cache lines in each
// of the first 22 steps; pre must point into live memory (the
// prefetches cannot fault, but a wild address can cost a page walk).
//
//go:noescape
func twoDepSeries8AVX2(rows, dist, next *float64, steps int, marg, proj, tab *float64, argmax *int32, pre *float64)
