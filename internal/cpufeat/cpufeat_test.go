package cpufeat

import "testing"

// TestFeatures logs what this machine supports, so a test log shows
// whether the vector kernels' tests ran or were skipped.
func TestFeatures(t *testing.T) {
	t.Logf("AVX2 %v, AVX512 %v", AVX2, AVX512)
	if AVX512 && !AVX2 {
		t.Error("AVX512 reported without AVX2, which its probe requires")
	}
}
