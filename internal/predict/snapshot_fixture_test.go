package predict

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"prepare/internal/binenc"
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

// restoreJSON restores a tan or kmeans detector from the JSON its Save
// wrote: the JSON fills the kind's snapshot struct, which restores
// through the validation every binary decode runs.
func restoreJSON(kind string, data []byte, opts DetectorOptions) (detector.Detector, error) {
	switch kind {
	case detector.KindTAN:
		var snap predictorSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, err
		}
		p, err := fromSnapshot(&snap)
		if err != nil {
			return nil, err
		}
		return newTANDetector(opts, p), nil
	case detector.KindKMeans:
		var snap outlierSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, err
		}
		d, err := outlierFromSnapshot(&snap, opts)
		if err != nil {
			return nil, err
		}
		return d, nil
	default:
		return nil, fmt.Errorf("no JSON snapshot struct for kind %q", kind)
	}
}

// binaryFromJSON re-encodes a tan or kmeans JSON snapshot, as the
// kind's snapshot struct holds it, in the binary checkpoint form
// DecodeDetector reads.
func binaryFromJSON(kind string, data []byte) ([]byte, error) {
	switch kind {
	case detector.KindTAN:
		var snap predictorSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, err
		}
		e := binenc.NewEncoder(nil)
		snap.encode(&e)
		return e.Finish()
	case detector.KindKMeans:
		var snap outlierSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, err
		}
		return snap.appendBinary(nil)
	default:
		return nil, fmt.Errorf("no JSON snapshot struct for kind %q", kind)
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

// TestParentSnapshotsResume restores the detector snapshots commit
// a347e8d wrote (NewDetector with fixtureOptions; Train on
// fixtureTrace(240, 150, 200, 21); Observe fixtureTrace(50, 0, 0, 22);
// Save) through the kind's snapshot struct and its shared restore,
// streams the next 100 rows into each and requires the score stream
// that commit produced, bit for bit, and a Save that reproduces the
// fixture bytes:
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
			d, err := restoreJSON(kind, snap, fixtureOptions())
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
				t.Error("Save after the restore does not reproduce the fixture bytes")
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
// as an ensemble member, and decoding its checkpoints fail with an error
// that names it, so a configuration or snapshot that still asks for it
// is refused rather than silently served by another kind.
func TestZScoreKindRejected(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "zscore.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture in binary form, as a kmeans snapshot struct holds it,
	// and an ensemble whose one member is that zscore checkpoint.
	bin, err := binaryFromJSON(detector.KindKMeans, fixture)
	if err != nil {
		t.Fatal(err)
	}
	e := binenc.NewEncoder(nil)
	e.JSON(map[string]any{"version": 1, "quorum": 1})
	e.Uvarint(1)
	e.String("zscore")
	e.String("zscore")
	e.Float64(1)
	e.Section(func(b []byte) ([]byte, error) { return append(b, bin...), nil })
	ensemble, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		try  func() error
	}{
		{"ParseSpec", func() error { _, err := detector.ParseSpec("zscore"); return err }},
		{"ParseSpec ensemble member", func() error { _, err := detector.ParseSpec("ensemble:tan+zscore"); return err }},
		{"DecodeDetector as zscore", func() error {
			_, err := DecodeDetector("zscore", bin, fixtureOptions())
			return err
		}},
		{"DecodeDetector as kmeans", func() error {
			_, err := DecodeDetector(detector.KindKMeans, bin, fixtureOptions())
			return err
		}},
		{"DecodeDetector ensemble member", func() error {
			_, err := DecodeDetector(detector.KindEnsemble, ensemble, fixtureOptions())
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
