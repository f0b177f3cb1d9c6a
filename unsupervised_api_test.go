package prepare

import (
	"math/rand"
	"testing"
)

func TestUnsupervisedPublicWorkflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mkRow := func() []float64 {
		return []float64{800 + 15*rng.NormFloat64(), 40 + 3*rng.NormFloat64()}
	}
	var rows [][]float64
	for i := 0; i < 200; i++ {
		rows = append(rows, mkRow())
	}
	d, err := NewDetector(DetectorSpec{Kind: DetectorKMeans}, DetectorOptions{
		Names:  []string{"free", "cpu"},
		Config: PredictorConfig{Bins: 8},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(rows, nil); err != nil { // no labels needed
		t.Fatal(err)
	}
	// Drive into an unseen extreme state.
	alerted := false
	for i := 0; i < 120; i++ {
		free := 800 - 7*float64(i) + 10*rng.NormFloat64()
		cpu := 40 + 0.45*float64(i) + 2*rng.NormFloat64()
		if err := d.Observe([]float64{free, cpu}); err != nil {
			t.Fatal(err)
		}
		dec, err := d.Score(60)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Abnormal {
			alerted = true
			break
		}
	}
	if !alerted {
		t.Error("kmeans detector never flagged the unseen drift")
	}
}

func TestOutlierDetectorsPublic(t *testing.T) {
	rows := [][]float64{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		rows = append(rows, []float64{10 + rng.NormFloat64(), 5 + 0.5*rng.NormFloat64()})
	}
	d, err := NewDetector(DetectorSpec{Kind: DetectorKMeans}, DetectorOptions{Names: []string{"a", "b"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != DetectorKMeans {
		t.Errorf("Kind() = %q, want %q", d.Kind(), DetectorKMeans)
	}
	if err := d.Train(rows, nil); err != nil {
		t.Fatal(err)
	}
	// The observed row joins the decision, so a central point stays
	// normal and an extreme one alerts at once.
	for _, tc := range []struct {
		row  []float64
		want bool
	}{{[]float64{10, 5}, false}, {[]float64{100, -40}, true}} {
		if err := d.Observe(tc.row); err != nil {
			t.Fatal(err)
		}
		dec, err := d.Score(5)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Abnormal != tc.want {
			t.Errorf("row %v abnormal = %v (score %g), want %v", tc.row, dec.Abnormal, dec.Score, tc.want)
		}
	}
}
