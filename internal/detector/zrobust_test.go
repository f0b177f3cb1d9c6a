package detector

import (
	"encoding/json"
	"math"
	"testing"
)

// TestLoadZRobustRejectsBadSnapshots: a snapshot whose scale is 0, -0
// or negative is refused by DecodeZRobust, and so is one whose center or scale
// is NaN or ±Inf (checked on the decoded snapshot, as JSON carries
// neither).
func TestLoadZRobustRejectsBadSnapshots(t *testing.T) {
	const dims = 4
	z := NewZRobust(dims, ZRobustOptions{})
	if err := z.Train(rampRows(dims, 50), nil); err != nil {
		t.Fatal(err)
	}
	saved := checkLoadRejects(t, z, func(b []byte) (bool, error) {
		var snap zrobustSnapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return false, err
		}
		bin, err := snap.appendBinary(nil)
		if err != nil {
			return false, err
		}
		d, err := DecodeZRobust(bin)
		return d != nil, err
	}, "scale")
	for _, field := range []string{"center", "scale"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var snap zrobustSnapshot
			if err := json.Unmarshal(saved, &snap); err != nil {
				t.Fatal(err)
			}
			map[string][]float64{"center": snap.Center, "scale": snap.Scale}[field][1] = v
			if err := snap.check(); err == nil {
				t.Errorf("%s[1] = %v passes the snapshot check", field, v)
			}
		}
	}
}
