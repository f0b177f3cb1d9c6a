package predict

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
)

// fixtureOptions are the detector options the testdata fixtures were
// written with.
func fixtureOptions() DetectorOptions {
	return DetectorOptions{
		Names:           []string{"free_mem", "cpu", "net"},
		Margin:          0.5,
		LookbackSamples: 12,
		Incremental:     true,
		Seed:            7,
	}
}

// fixtureTrace is the deterministic stream behind the fixtures: a noisy
// steady state whose free memory leaks away (and CPU climbs) between
// rows lo and hi, labeled abnormal over the second half of the leak.
func fixtureTrace(n, lo, hi int, seed int64) ([][]float64, []metrics.Label) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	labels := make([]metrics.Label, n)
	for i := range rows {
		leak := 0.0
		if i >= lo && i < hi {
			leak = float64(i-lo) / float64(hi-lo)
		}
		rows[i] = []float64{
			900 - 800*leak + 12*rng.NormFloat64(),
			35 + 50*leak + 3*rng.NormFloat64(),
			200 + 20*math.Sin(float64(i)/9) + 4*rng.NormFloat64(),
		}
		labels[i] = metrics.LabelNormal
		if leak > 0.5 {
			labels[i] = metrics.LabelAbnormal
		}
	}
	return rows, labels
}

// TestParentSnapshotsResume loads the detector snapshots commit a347e8d
// wrote (NewDetector with fixtureOptions; Train on fixtureTrace(240,
// 150, 200, 21); Observe fixtureTrace(50, 0, 0, 22); Save), streams the
// next 100 rows into each and requires the score stream that commit
// produced, bit for bit, and a Save that reproduces the fixture bytes:
// a checkpoint taken before the value model and the outlier detector
// were folded restores and continues unchanged. The fixtures are that
// commit's output; do not regenerate them from a later tree.
func TestParentSnapshotsResume(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture scores were recorded on amd64, not %s", runtime.GOARCH)
	}
	next, nextLabels := fixtureTrace(100, 40, 90, 23)
	for _, kind := range []string{detector.KindTAN, detector.KindKMeans} {
		t.Run(kind, func(t *testing.T) {
			snap, err := os.ReadFile(filepath.Join("testdata", kind+".snapshot.json"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", kind+".scores.txt"))
			if err != nil {
				t.Fatal(err)
			}
			d, err := LoadDetector(kind, bytes.NewReader(snap), fixtureOptions())
			if err != nil {
				t.Fatal(err)
			}
			if d.Kind() != kind {
				t.Errorf("Kind() = %q, want %q", d.Kind(), kind)
			}
			var resaved bytes.Buffer
			if err := d.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), snap) {
				t.Error("Save after Load does not reproduce the fixture bytes")
			}
			var got strings.Builder
			for i, row := range next {
				if err := d.Update(row, nextLabels[i]); err != nil {
					t.Fatal(err)
				}
				dec, err := d.Score(60)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%016x %t %d\n", math.Float64bits(dec.Score), dec.Abnormal, dec.LeadSteps)
			}
			if got.String() != string(want) {
				t.Errorf("score stream diverged from the parent's:\n got:\n%s want:\n%s", got.String(), want)
			}
		})
	}
}

// TestZScoreKindRejected: the zscore kind is gone. Parsing it, alone or
// as an ensemble member, and loading its checkpoints fail with an error
// that names it, so a configuration or snapshot that still asks for it
// is refused rather than silently served by another kind.
func TestZScoreKindRejected(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "zscore.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	ensemble := `{"version":1,"members":[{"name":"zscore","kind":"zscore","weight":1,"data":` +
		strings.TrimSpace(string(fixture)) + `}]}`
	for _, tc := range []struct {
		name string
		try  func() error
	}{
		{"ParseSpec", func() error { _, err := detector.ParseSpec("zscore"); return err }},
		{"ParseSpec ensemble member", func() error { _, err := detector.ParseSpec("ensemble:tan+zscore"); return err }},
		{"LoadDetector as zscore", func() error {
			_, err := LoadDetector("zscore", bytes.NewReader(fixture), fixtureOptions())
			return err
		}},
		{"LoadDetector as kmeans", func() error {
			_, err := LoadDetector(detector.KindKMeans, bytes.NewReader(fixture), fixtureOptions())
			return err
		}},
		{"LoadDetector ensemble member", func() error {
			_, err := LoadDetector(detector.KindEnsemble, strings.NewReader(ensemble), fixtureOptions())
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.try()
			if err == nil || !strings.Contains(err.Error(), "zscore") {
				t.Errorf("err = %v, want an error naming zscore", err)
			}
		})
	}
}
