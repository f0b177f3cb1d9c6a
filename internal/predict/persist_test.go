package predict

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prepare/internal/detector"
)

func trainedPredictor(t *testing.T) *Predictor {
	t.Helper()
	rows, labels := leakTrace(200, 30)
	p, err := New(Config{Bins: 10}, []string{"free_mem", "noise"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := trainedPredictor(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !q.Trained() {
		t.Fatal("loaded predictor not trained")
	}
	if got := q.Names(); len(got) != 2 || got[0] != "free_mem" {
		t.Errorf("names = %v", got)
	}

	// Identical behaviour on identical inputs.
	testRows, _ := leakTrace(200, 31)
	for i, row := range testRows {
		if err := p.Observe(row); err != nil {
			t.Fatal(err)
		}
		if err := q.Observe(row); err != nil {
			t.Fatal(err)
		}
		if i%17 != 0 {
			continue
		}
		vp, err := p.Predict(4)
		if err != nil {
			t.Fatal(err)
		}
		vq, err := q.Predict(4)
		if err != nil {
			t.Fatal(err)
		}
		if vp.Abnormal != vq.Abnormal || math.Abs(vp.Score-vq.Score) > 1e-9 {
			t.Fatalf("step %d: original %v/%.4f vs loaded %v/%.4f",
				i, vp.Abnormal, vp.Score, vq.Abnormal, vq.Score)
		}
	}
}

func TestSaveUntrainedFails(t *testing.T) {
	p, err := New(Config{}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != ErrNotTrained {
		t.Errorf("Save untrained = %v, want ErrNotTrained", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	kmeans, err := os.ReadFile(filepath.Join("testdata", "kmeans.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	// mutated returns the valid k-means snapshot with one edit applied to
	// its decoded form (det is the nested "detector" object).
	mutated := func(edit func(snap, det map[string]any)) string {
		var snap map[string]any
		if err := json.Unmarshal(kmeans, &snap); err != nil {
			t.Fatal(err)
		}
		edit(snap, snap["detector"].(map[string]any))
		out, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	const tan, km, zs = detector.KindTAN, detector.KindKMeans, detector.KindZScore
	for _, tc := range []struct {
		name, kind, data string
		wantInErr        []string
	}{
		{name: "not json", kind: tan, data: "hello"},
		{name: "bad version", kind: tan, data: `{"version":99,"names":["a"]}`},
		{name: "no names", kind: tan, data: `{"version":1,"names":[]}`},
		{name: "mismatch", kind: tan, data: `{"version":1,"names":["a","b"],"discretizers":[],"chains":[]}`},
		{name: "outlier not json", kind: km, data: "hello"},
		{name: "outlier bad version", kind: km, data: mutated(func(snap, _ map[string]any) { snap["version"] = 99 })},
		{name: "outlier no names", kind: km, data: mutated(func(snap, _ map[string]any) { snap["names"] = []string{} })},
		{name: "kmeans payload loaded as zscore", kind: zs, data: string(kmeans), wantInErr: []string{"zscore", "kmeans"}},
		{name: "payload kind disagrees", kind: km, data: mutated(func(snap, _ map[string]any) { snap["kind"] = 2 }),
			wantInErr: []string{"kmeans", "kind 2"}},
		{name: "detector kind disagrees", kind: km, data: mutated(func(_, det map[string]any) { det["kind"] = "zscore" }),
			wantInErr: []string{"kmeans", "zscore"}},
		{name: "zero-width center", kind: km, data: mutated(func(_, det map[string]any) { det["center"] = []float64{} })},
		{name: "short scale", kind: km, data: mutated(func(_, det map[string]any) { det["scale"] = []float64{1} })},
		{name: "ragged centroid", kind: km, data: mutated(func(_, det map[string]any) {
			cs := det["centroids"].([]any)
			cs[len(cs)-1] = cs[len(cs)-1].([]any)[:1]
		})},
		{name: "kmeans without centroids", kind: km, data: mutated(func(_, det map[string]any) { delete(det, "centroids") })},
		{name: "zscore with centroids", kind: zs, data: mutated(func(snap, det map[string]any) { snap["kind"], det["kind"] = 2, zs })},
		{name: "short last row", kind: km, data: mutated(func(snap, _ map[string]any) { snap["last_row"] = []float64{1} })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadDetector(tc.kind, strings.NewReader(tc.data), DetectorOptions{})
			if err == nil {
				t.Fatal("garbage snapshot should fail to load")
			}
			for _, want := range tc.wantInErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

func TestLoadRejectsCorruptedModel(t *testing.T) {
	p := trainedPredictor(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt a probability to an invalid value.
	data := strings.Replace(buf.String(), `"total":`, `"total":-`, 1)
	if _, err := Load(strings.NewReader(data)); err == nil {
		t.Error("negative class total should fail validation")
	}
}

func TestSaveLoadSimpleChainVariant(t *testing.T) {
	rows, labels := leakTrace(150, 32)
	p, err := New(Config{Order: SimpleMarkov, Bins: 8}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Config().Order != SimpleMarkov {
		t.Errorf("loaded order = %v", q.Config().Order)
	}
	if _, err := q.PredictWindow(60); err != nil {
		t.Fatal(err)
	}
}
