package metrics

import (
	"testing"
)

func TestEqualWidthSnapshotRoundTrip(t *testing.T) {
	d, err := NewEqualWidthRange(-10, 90, 8)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DiscretizerFromSnapshot(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-20, -10, 0, 44.4, 89.9, 90, 200} {
		if got, want := restored.Bin(v), d.Bin(v); got != want {
			t.Errorf("Bin(%g) = %d, want %d", v, got, want)
		}
	}
	for b := 0; b < 8; b++ {
		if restored.Center(b) != d.Center(b) {
			t.Errorf("Center(%d) differs", b)
		}
	}
}

func TestDiscretizerFromSnapshotValidation(t *testing.T) {
	cases := map[string]DiscretizerSnapshot{
		"unknown kind": {Kind: "fourier"},
		"bad range":    {Kind: "equal-width", Lo: 5, Hi: 5, Bins: 3},
		"zero bins":    {Kind: "equal-width", Lo: 0, Hi: 1, Bins: 0},
		"quantile":     {Kind: "quantile", Lo: 0, Hi: 1, Bins: 4},
	}
	for name, snap := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DiscretizerFromSnapshot(snap); err == nil {
				t.Error("invalid snapshot should fail")
			}
		})
	}
}
