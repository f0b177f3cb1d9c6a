package predict

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
)

// intoBuffer lays rows out as consecutive windows of one backing array,
// the way Series.RowsInto hands them to Train, with a private copy of
// the labels.
func intoBuffer(rows [][]float64, labels []metrics.Label) ([]float64, [][]float64, []metrics.Label) {
	width := len(rows[0])
	backing := make([]float64, len(rows)*width)
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = backing[i*width : (i+1)*width : (i+1)*width]
		copy(out[i], r)
	}
	return backing, out, append([]metrics.Label(nil), labels...)
}

// stepTrace renders one Observe/Score/Verdict step in bits.
func stepTrace(d detector.Detector, row []float64, label metrics.Label) (string, error) {
	if err := d.Update(row, label); err != nil {
		return "", err
	}
	dec, err := d.Score(60)
	if err != nil {
		return "", err
	}
	v, err := d.Verdict()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%t %016x %d | %t %016x %d", dec.Abnormal, math.Float64bits(dec.Score), dec.LeadSteps,
		v.Abnormal, math.Float64bits(v.Score), v.LeadSteps)
	for _, s := range v.Strengths {
		fmt.Fprintf(&b, " %d:%016x", s.Attribute, math.Float64bits(s.L))
	}
	return b.String(), nil
}

// TestTrainReplacesStateAndRetainsNothing pins detector.Detector.Train's
// contract for every kind and a two-member ensemble: retraining a
// detector that was trained and streamed since leaves it identical to a
// fresh one trained once on the second history, and neither holds on to
// the rows or labels it was given — overwriting the buffer afterwards
// changes none of the next 50 decisions.
func TestTrainReplacesStateAndRetainsNothing(t *testing.T) {
	first, firstLabels := fixtureTrace(240, 150, 200, 21)
	second, secondLabels := fixtureTrace(200, 60, 130, 31)
	warm, _ := fixtureTrace(30, 0, 0, 41)
	next, nextLabels := fixtureTrace(50, 10, 40, 51)
	for _, tc := range []struct {
		spec        string
		incremental bool
	}{
		{detector.KindTAN, false},
		{detector.KindTAN, true},
		{detector.KindKMeans, false},
		{detector.KindEWMA, false},
		{detector.KindZRobust, false},
		{"ensemble:tan+kmeans", false},
	} {
		name := tc.spec
		if tc.incremental {
			name += "/incremental"
		}
		t.Run(name, func(t *testing.T) {
			spec, err := detector.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := fixtureOptions()
			opts.Incremental = tc.incremental
			d, err := NewDetector(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, rows, labels := intoBuffer(first, firstLabels)
			if err := d.Train(rows, labels); err != nil {
				t.Fatal(err)
			}
			for _, row := range warm {
				if err := d.Observe(row); err != nil {
					t.Fatal(err)
				}
			}
			backing, rows, labels := intoBuffer(second, secondLabels)
			if err := d.Train(rows, labels); err != nil {
				t.Fatal(err)
			}

			fresh, err := NewDetector(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, freshRows, freshLabels := intoBuffer(second, secondLabels)
			if err := fresh.Train(freshRows, freshLabels); err != nil {
				t.Fatal(err)
			}
			var got, want bytes.Buffer
			if err := d.Save(&got); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Save(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("retrained snapshot differs from a fresh fit on the same history:\n got %.300s\nwant %.300s", got.Bytes(), want.Bytes())
			}

			for i := range backing {
				backing[i] = math.NaN()
			}
			for i := range labels {
				labels[i] = metrics.LabelAbnormal
			}
			for i, row := range next {
				g, err := stepTrace(d, row, nextLabels[i])
				if err != nil {
					t.Fatal(err)
				}
				w, err := stepTrace(fresh, row, nextLabels[i])
				if err != nil {
					t.Fatal(err)
				}
				if g != w {
					t.Fatalf("step %d after the buffer was overwritten:\n got %s\nwant %s", i, g, w)
				}
			}
		})
	}
}
