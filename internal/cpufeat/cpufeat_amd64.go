package cpufeat

// hasAVX2 and hasAVX512 are implemented in cpufeat_amd64.s.

func hasAVX2() bool

func hasAVX512() bool
