package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEqualWidthBasic(t *testing.T) {
	d, err := NewEqualWidthRange(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		value float64
		want  int
	}{
		{-5, 0}, {0, 0}, {5, 0}, {9.99, 0},
		{10, 1}, {55, 5}, {99.9, 9}, {100, 9}, {1000, 9},
	}
	for _, tt := range tests {
		if got := d.Bin(tt.value); got != tt.want {
			t.Errorf("Bin(%g) = %d, want %d", tt.value, got, tt.want)
		}
	}
}

func TestEqualWidthFromData(t *testing.T) {
	d, err := NewEqualWidth([]float64{2, 4, 6, 8, 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.bins != 4 {
		t.Fatalf("bins = %d, want 4", d.bins)
	}
	if got := d.Bin(2); got != 0 {
		t.Errorf("Bin(min) = %d, want 0", got)
	}
	if got := d.Bin(10); got != 3 {
		t.Errorf("Bin(max) = %d, want 3", got)
	}
}

func TestEqualWidthConstantData(t *testing.T) {
	d, err := NewEqualWidth([]float64{5, 5, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Bin(5); got < 0 || got >= 8 {
		t.Errorf("Bin(5) = %d out of range", got)
	}
}

func TestEqualWidthErrors(t *testing.T) {
	if _, err := NewEqualWidth(nil, 4); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := NewEqualWidth([]float64{1}, 0); err == nil {
		t.Error("zero bins should fail")
	}
	if _, err := NewEqualWidthRange(5, 5, 3); err == nil {
		t.Error("degenerate range should fail")
	}
}

func TestEqualWidthNaN(t *testing.T) {
	d, err := NewEqualWidthRange(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Bin(math.NaN()); got != 0 {
		t.Errorf("Bin(NaN) = %d, want 0", got)
	}
}

func TestEqualWidthCenterInvertsApproximately(t *testing.T) {
	d, err := NewEqualWidthRange(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < d.bins; b++ {
		c := d.Center(b)
		if got := d.Bin(c); got != b {
			t.Errorf("Bin(Center(%d)) = %d, want %d (center=%g)", b, got, b, c)
		}
	}
	// Out-of-range bins clamp.
	if d.Center(-1) != d.Center(0) {
		t.Error("Center(-1) should clamp to first bin")
	}
	if d.Center(99) != d.Center(9) {
		t.Error("Center(99) should clamp to last bin")
	}
}

func TestPropertyEqualWidthBinInRange(t *testing.T) {
	d, err := NewEqualWidthRange(-50, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return d.Bin(v) == 0
		}
		b := d.Bin(v)
		return b >= 0 && b < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyEqualWidthMonotonic(t *testing.T) {
	d, err := NewEqualWidthRange(0, 1000, 13)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16) bool {
		a, b := float64(aRaw), float64(bRaw)
		if a > b {
			a, b = b, a
		}
		return d.Bin(a) <= d.Bin(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
