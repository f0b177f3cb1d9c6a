package experiment

import (
	"math"
	"strings"
	"testing"

	"prepare/internal/control"
	"prepare/internal/faults"
)

func TestNewStat(t *testing.T) {
	s := NewStat([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 || math.Abs(s.Std-2) > 1e-12 || s.N != 8 {
		t.Errorf("stat = %+v", s)
	}
	empty := NewStat(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("empty stat = %+v", empty)
	}
}

func TestStatString(t *testing.T) {
	s := Stat{Mean: 12.34, Std: 5.6}
	if got := s.String(); got != "12.3±5.6" {
		t.Errorf("String() = %q", got)
	}
}

func TestReduction(t *testing.T) {
	tests := []struct {
		baseline, measured, want float64
	}{
		{100, 10, 90},
		{100, 100, 0},
		{100, 150, -50},
		{0, 10, 0},
	}
	for _, tt := range tests {
		if got := Reduction(tt.baseline, tt.measured); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Reduction(%g,%g) = %g, want %g", tt.baseline, tt.measured, got, tt.want)
		}
	}
}

func TestRepeatValidation(t *testing.T) {
	if _, _, err := Repeat(Scenario{App: RUBiS, Fault: faults.CPUHog, Scheme: control.SchemeNone}, 0); err == nil {
		t.Error("zero repetitions should fail")
	}
}

func TestRepeatUsesConsecutiveSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	_, results, err := Repeat(Scenario{
		App: RUBiS, Fault: faults.CPUHog, Scheme: control.SchemeNone, Seed: 40,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Scenario.Seed != int64(40+i) {
			t.Errorf("run %d used seed %d, want %d", i, res.Scenario.Seed, 40+i)
		}
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{}.withDefaults()
	if sc.DurationS != 1500 || sc.TrainAtS != 600 || sc.SamplingIntervalS != 5 ||
		sc.LookaheadS != 120 || sc.Inject1 != [2]int64{200, 500} || sc.Inject2 != [2]int64{900, 1200} {
		t.Errorf("defaults = %+v", sc)
	}
}

func TestTable1Rows(t *testing.T) {
	rows, err := Table1(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	text := FormatTable1(rows)
	for _, want := range []string{"TAN model training", "Live VM migration", "measured"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q", want)
		}
	}
}
