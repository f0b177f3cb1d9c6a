//go:build !amd64

package cpufeat

func hasAVX2() bool { return false }

func hasAVX512() bool { return false }
