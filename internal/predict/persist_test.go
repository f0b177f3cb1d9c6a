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
	"prepare/internal/metrics"
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
	// The TAN fixture with its count table removed: every tan snapshot
	// must carry the counts Update and Retrain work from.
	tanFixture, err := os.ReadFile(filepath.Join("testdata", "tan.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tanSnap map[string]any
	if err := json.Unmarshal(tanFixture, &tanSnap); err != nil {
		t.Fatal(err)
	}
	delete(tanSnap, "incremental")
	tanNoCounts, err := json.Marshal(tanSnap)
	if err != nil {
		t.Fatal(err)
	}
	const tan, km = detector.KindTAN, detector.KindKMeans
	for _, tc := range []struct {
		name, kind, data string
		wantInErr        []string
	}{
		{name: "not json", kind: tan, data: "hello"},
		{name: "bad version", kind: tan, data: `{"version":99,"names":["a"]}`},
		{name: "no names", kind: tan, data: `{"version":1,"names":[]}`},
		{name: "mismatch", kind: tan, data: `{"version":1,"names":["a","b"],"discretizers":[],"chains":[]}`},
		{name: "tan without counts", kind: tan, data: string(tanNoCounts), wantInErr: []string{"no incremental counts"}},
		{name: "outlier not json", kind: km, data: "hello"},
		{name: "outlier bad version", kind: km, data: mutated(func(snap, _ map[string]any) { snap["version"] = 99 })},
		{name: "outlier no names", kind: km, data: mutated(func(snap, _ map[string]any) { snap["names"] = []string{} })},
		{name: "kmeans payload loaded as zscore", kind: "zscore", data: string(kmeans), wantInErr: []string{"zscore"}},
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
		{name: "zscore with centroids", kind: km, data: mutated(func(snap, det map[string]any) { snap["kind"], det["kind"] = 2, "zscore" }),
			wantInErr: []string{"kmeans", "zscore"}},
		{name: "short last row", kind: km, data: mutated(func(snap, _ map[string]any) { snap["last_row"] = []float64{1} })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bin, err := binaryFromJSON(tc.kind, []byte(tc.data))
			if err != nil {
				// Not a snapshot of the kind at all: decode the bytes as
				// they are.
				bin = []byte(tc.data)
			}
			_, err = DecodeDetector(tc.kind, bin, DetectorOptions{})
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

// TestBinarySnapshotRoundTrip: for every detector kind, the binary
// checkpoint encoding decodes to a detector whose JSON Save is the
// original's, byte for byte — the unchanged JSON document is the oracle
// for "the same state" — and encodes back to the same bytes. The parent
// snapshot fixtures make the same round trip.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	train, trainLabels := fixtureTrace(240, 150, 200, 21)
	stream, streamLabels := fixtureTrace(50, 0, 30, 22)
	roundTrip := func(t *testing.T, kind string, d detector.Detector) {
		t.Helper()
		var want bytes.Buffer
		if err := d.Save(&want); err != nil {
			t.Fatal(err)
		}
		const prefix = "prefix"
		bin, err := d.AppendBinary([]byte(prefix))
		if err != nil {
			t.Fatal(err)
		}
		if string(bin[:len(prefix)]) != prefix {
			t.Fatal("AppendBinary overwrote the bytes it appends to")
		}
		bin = bin[len(prefix):]
		got, err := DecodeDetector(kind, bin, fixtureOptions())
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), again.Bytes()) {
			t.Fatalf("JSON Save after the binary round trip differs:\n got %s\nwant %s", again.Bytes(), want.Bytes())
		}
		rebin, err := got.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebin, bin) {
			t.Fatal("re-encoding the decoded detector changed the binary bytes")
		}
	}
	for _, spec := range []detector.Spec{
		{Kind: detector.KindTAN},
		{Kind: detector.KindKMeans},
		{Kind: detector.KindEWMA},
		{Kind: detector.KindZRobust},
		{Kind: detector.KindEnsemble, Members: []string{detector.KindTAN, detector.KindEWMA}},
		{Kind: detector.KindEnsemble, Members: []string{detector.KindTAN, detector.KindKMeans, detector.KindEWMA, detector.KindZRobust}, Quorum: 2},
	} {
		name := spec.Kind + strings.Join(spec.Members, "+")
		t.Run(name, func(t *testing.T) {
			d, err := NewDetector(spec, fixtureOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Train(train, append([]metrics.Label(nil), trainLabels...)); err != nil {
				t.Fatal(err)
			}
			for i, row := range stream {
				// A tan detector folds the stream into its counts and
				// look-back ring; the other kinds observe it.
				if spec.Kind == detector.KindTAN {
					err = d.Update(row, streamLabels[i])
				} else {
					err = d.Observe(row)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			roundTrip(t, spec.Kind, d)
		})
	}
	for _, kind := range []string{detector.KindTAN, detector.KindKMeans} {
		t.Run("fixture-"+kind, func(t *testing.T) {
			snap, err := os.ReadFile(filepath.Join("testdata", kind+".snapshot.json"))
			if err != nil {
				t.Fatal(err)
			}
			d, err := restoreJSON(kind, snap, fixtureOptions())
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, kind, d)
		})
	}
}
