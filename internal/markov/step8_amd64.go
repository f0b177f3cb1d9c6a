package markov

// useAVX2 selects the vector step kernel in TwoDepChain.seriesInto8. It
// is decided once from CPUID; machines without AVX2 run twoDepStep8Go,
// whose output the vector kernel reproduces bit for bit
// (TestTwoDepStep8MatchesGo).
var useAVX2 = cpuHasAVX2()

// Both are implemented in step8_amd64.s.

func cpuHasAVX2() bool

//go:noescape
func twoDepStep8AVX2(rows, dist, next, marg *float64)
