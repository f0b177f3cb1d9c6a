package experiment

import (
	"strings"
	"testing"

	"prepare/internal/control"
	"prepare/internal/faults"
	"prepare/internal/prevent"
)

func TestFigureSLOViolationScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cells, err := FigureSLOViolation(prevent.ScalingFirst, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 { // 2 apps × 3 faults × 3 schemes
		t.Fatalf("got %d cells, want 18", len(cells))
	}
	// Core claim: PREPARE reduces SLO violation time vs without
	// intervention in every cell.
	byKey := map[string]map[control.Scheme]float64{}
	for _, c := range cells {
		key := c.App.String() + "/" + c.Fault.String()
		if byKey[key] == nil {
			byKey[key] = map[control.Scheme]float64{}
		}
		byKey[key][c.Scheme] = c.Stat.Mean
	}
	for key, schemes := range byKey {
		if schemes[control.SchemePREPARE] >= schemes[control.SchemeNone] {
			t.Errorf("%s: PREPARE %.0f not better than none %.0f",
				key, schemes[control.SchemePREPARE], schemes[control.SchemeNone])
		}
	}
	text := FormatViolationCells("Figure 6", cells)
	if !strings.Contains(text, "prepare") || !strings.Contains(text, "vs reactive") {
		t.Error("formatted table missing expected columns")
	}
}

func TestFigureTraces(t *testing.T) {
	series, err := FigureTraces(SystemS, faults.MemoryLeak, prevent.ScalingFirst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series, want 3", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Errorf("%v: empty trace", s.Scheme)
		}
	}
	text := FormatTraces("Figure 7(a)", "Ktuples/s", series, 20)
	if !strings.Contains(text, "prepare") {
		t.Error("trace table missing scheme column")
	}
}

func TestFigureMarkovComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	curves, err := FigureMarkovComparison(SystemS, faults.MemoryLeak, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	if curves[0].Label != "2-dep. Markov" || curves[1].Label != "simple Markov" {
		t.Errorf("labels = %q, %q", curves[0].Label, curves[1].Label)
	}
	text := FormatAccuracyCurves("Figure 11(a)", curves)
	if !strings.Contains(text, "lookahead") {
		t.Error("accuracy table missing header")
	}
}

func TestFigureAlarmFiltering(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	curves, err := FigureAlarmFiltering(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("got %d curves, want 3 (k=1,2,3)", len(curves))
	}
	// Larger k must not raise the false alarm rate (Figure 12's main
	// message), averaged over the sweep.
	avgAF := func(c AccuracyCurve) float64 {
		s := 0.0
		for _, p := range c.Points {
			s += p.AF
		}
		return s / float64(len(c.Points))
	}
	if avgAF(curves[2]) > avgAF(curves[0])+1e-9 {
		t.Errorf("k=3 avg A_F %.3f exceeds k=1 %.3f", avgAF(curves[2]), avgAF(curves[0]))
	}
}

func TestFigureSamplingInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	curves, err := FigureSamplingInterval(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("got %d curves, want 3 (1s, 5s, 10s)", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) == 0 {
			t.Errorf("%s: empty sweep", c.Label)
		}
	}
}

func TestFigurePerComponentVsMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	curves, err := FigurePerComponentVsMonolithic(RUBiS, faults.MemoryLeak, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves", len(curves))
	}
	// Average quality (A_T - A_F) of per-component must beat monolithic.
	quality := func(c AccuracyCurve) float64 {
		q := 0.0
		for _, p := range c.Points {
			q += p.AT - p.AF
		}
		return q / float64(len(c.Points))
	}
	if quality(curves[0]) <= quality(curves[1]) {
		t.Errorf("per-component %.3f should beat monolithic %.3f",
			quality(curves[0]), quality(curves[1]))
	}
}

// TestFormatViolationCellsSign: the "vs" columns carry the sign of the
// change in violation time, so a cell where PREPARE loses reads "+20%",
// not "--20%".
func TestFormatViolationCellsSign(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		none, reactive, prepare float64
		wantVsNone, wantVsReact string
	}{
		{"wins both", 100, 50, 40, "-60%", "-20%"},
		{"loses to reactive", 100, 50, 60, "-40%", "+20%"},
		{"ties reactive", 100, 50, 50, "-50%", "-0%"},
		{"no baseline violation", 0, 0, 10, "-0%", "-0%"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cell := func(s control.Scheme, mean float64) ViolationCell {
				return ViolationCell{App: RUBiS, Fault: faults.MemoryLeak, Scheme: s, Stat: Stat{Mean: mean, N: 1}}
			}
			text := FormatViolationCells("t", []ViolationCell{
				cell(control.SchemeNone, tc.none),
				cell(control.SchemeReactive, tc.reactive),
				cell(control.SchemePREPARE, tc.prepare),
			})
			var row []string
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) > 2 && f[2] == control.SchemePREPARE.String() {
					row = f
				}
			}
			if len(row) != 6 {
				t.Fatalf("no six-column prepare row in:\n%s", text)
			}
			if row[4] != tc.wantVsNone || row[5] != tc.wantVsReact {
				t.Errorf("vs none/reactive = %s %s, want %s %s", row[4], row[5], tc.wantVsNone, tc.wantVsReact)
			}
		})
	}
}
