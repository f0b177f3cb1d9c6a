package monitor

import (
	"encoding/binary"
	"math"
	"testing"

	"prepare/internal/metrics"
)

// vectorsFromBytes decodes two metric vectors (raw + fallback) from a
// fuzz byte string, 8 bytes per attribute, zero-padding short inputs.
// Every float64 bit pattern is reachable, so the fuzzer explores NaN
// payloads, infinities, subnormals, and negative zeros.
func vectorsFromBytes(data []byte) (raw, fallback metrics.Vector) {
	at := func(i int) float64 {
		var chunk [8]byte
		lo := i * 8
		for j := 0; j < 8 && lo+j < len(data); j++ {
			chunk[j] = data[lo+j]
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(chunk[:]))
	}
	for i := 0; i < metrics.NumAttributes; i++ {
		raw[i] = at(i)
		fallback[i] = at(metrics.NumAttributes + i)
	}
	return raw, fallback
}

// sanitizeByValue is the by-value sanitizer SanitizeVector replaced,
// kept as the oracle its in-place form must match bit for bit.
func sanitizeByValue(v, fallback metrics.Vector) (metrics.Vector, int) {
	repaired := 0
	for i := range v {
		if badValue(v[i]) {
			f := fallback[i]
			if badValue(f) {
				f = 0
			}
			v[i] = f
			repaired++
		}
	}
	return v, repaired
}

// sameBits reports whether two vectors are equal bit for bit, NaN
// payloads included.
func sameBits(a, b metrics.Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzVectorSanitize checks SanitizeVector's contract over arbitrary
// bit patterns: the output never carries NaN, ±Inf, or negative values
// into discretization; clean attributes pass through untouched; the
// repair count matches exactly the number of unusable inputs; the
// fallback is left as it was; and the in-place repair equals the
// by-value oracle's bit for bit, also when it runs on the fallback
// itself.
func FuzzVectorSanitize(f *testing.F) {
	seed := func(raw, fallback metrics.Vector) {
		buf := make([]byte, 2*metrics.NumAttributes*8)
		for i := 0; i < metrics.NumAttributes; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(raw[i]))
			binary.LittleEndian.PutUint64(buf[(metrics.NumAttributes+i)*8:], math.Float64bits(fallback[i]))
		}
		f.Add(buf)
	}
	seed(metrics.Vector{}, metrics.Vector{})
	seed(metrics.Vector{math.NaN(), math.Inf(1), math.Inf(-1), -1, 42}, metrics.Vector{1, 2, 3, 4, 5})
	seed(metrics.Vector{math.NaN()}, metrics.Vector{math.NaN()})
	seed(metrics.Vector{1e308, 1e-308, 0.5}, metrics.Vector{-7, math.Inf(1)})
	f.Add([]byte{})
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		raw, fallback := vectorsFromBytes(data)
		clean, keep := raw, fallback
		repaired := SanitizeVector(&clean, &keep)
		if !sameBits(keep, fallback) {
			t.Fatalf("fallback was modified: %v -> %v", fallback, keep)
		}

		wantRepaired := 0
		for i := range raw {
			if badValue(raw[i]) {
				wantRepaired++
				switch {
				case badValue(fallback[i]) && clean[i] != 0:
					t.Fatalf("attr %d: bad input %v with bad fallback %v repaired to %v, want 0",
						i, raw[i], fallback[i], clean[i])
				case !badValue(fallback[i]) && clean[i] != fallback[i]:
					t.Fatalf("attr %d: bad input %v repaired to %v, want fallback %v",
						i, raw[i], clean[i], fallback[i])
				}
			} else if clean[i] != raw[i] {
				t.Fatalf("attr %d: clean input %v was altered to %v", i, raw[i], clean[i])
			}
			if badValue(clean[i]) {
				t.Fatalf("attr %d: sanitized output still unusable: %v", i, clean[i])
			}
		}
		if repaired != wantRepaired {
			t.Fatalf("repaired = %d, want %d", repaired, wantRepaired)
		}

		if want, wantN := sanitizeByValue(raw, fallback); !sameBits(clean, want) || repaired != wantN {
			t.Fatalf("in place: %v (%d repaired), oracle %v (%d)", clean, repaired, want, wantN)
		}
		// The fallback, itself possibly bad, repaired against itself.
		self := fallback
		selfN := SanitizeVector(&self, &self)
		if want, wantN := sanitizeByValue(fallback, fallback); !sameBits(self, want) || selfN != wantN {
			t.Fatalf("aliased: %v (%d repaired), oracle %v (%d)", self, selfN, want, wantN)
		}
	})
}
