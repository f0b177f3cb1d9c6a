package metrics

import (
	"testing"

	"prepare/internal/simclock"
)

func mkSample(t simclock.Time, cpu float64, label Label) Sample {
	var v Vector
	v.Set(CPUTotal, cpu)
	return Sample{Time: t, Values: v, Label: label}
}

func TestVectorGetSet(t *testing.T) {
	var v Vector
	v.Set(FreeMem, 1024)
	if got := v.Get(FreeMem); got != 1024 {
		t.Errorf("Get(FreeMem) = %g, want 1024", got)
	}
	if got := v.Get(CPUTotal); got != 0 {
		t.Errorf("unset attribute = %g, want 0", got)
	}
}

func TestSeriesAppendAndLen(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 4; i++ {
		if err := s.Append(mkSample(simclock.Time(i*5), float64(i), LabelNormal)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

func TestSeriesRejectsOutOfOrder(t *testing.T) {
	s := NewSeries(2)
	if err := s.Append(mkSample(10, 1, LabelNormal)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Append(mkSample(5, 2, LabelNormal)); err == nil {
		t.Error("appending an earlier sample should fail")
	}
	// Equal timestamps are fine.
	if err := s.Append(mkSample(10, 3, LabelNormal)); err != nil {
		t.Errorf("equal-time append should succeed: %v", err)
	}
}

func TestSeriesLast(t *testing.T) {
	s := NewSeries(0)
	if _, ok := s.Last(); ok {
		t.Error("Last on empty series should report false")
	}
	if err := s.Append(mkSample(5, 7, LabelAbnormal)); err != nil {
		t.Fatal(err)
	}
	last, ok := s.Last()
	if !ok || last.Time != 5 || last.Values.Get(CPUTotal) != 7 {
		t.Errorf("Last = %+v ok=%v", last, ok)
	}
}

func TestSeriesWindow(t *testing.T) {
	s := NewSeries(0)
	for i := 0; i < 10; i++ {
		if err := s.Append(mkSample(simclock.Time(i*5), float64(i), LabelNormal)); err != nil {
			t.Fatal(err)
		}
	}
	w := s.Window(10, 30)
	if len(w) != 4 { // samples at 10,15,20,25
		t.Fatalf("Window(10,30) len = %d, want 4", len(w))
	}
	if w[0].Time != 10 || w[3].Time != 25 {
		t.Errorf("window bounds wrong: %v..%v", w[0].Time, w[3].Time)
	}
}

func TestSeriesColumn(t *testing.T) {
	s := NewSeries(0)
	for i := 0; i < 5; i++ {
		if err := s.Append(mkSample(simclock.Time(i), float64(i*2), LabelNormal)); err != nil {
			t.Fatal(err)
		}
	}
	col := s.Column(CPUTotal)
	for i, v := range col {
		if v != float64(i*2) {
			t.Errorf("col[%d] = %g, want %d", i, v, i*2)
		}
	}
}

func TestSeriesRelabel(t *testing.T) {
	s := NewSeries(0)
	for i := 0; i < 6; i++ {
		if err := s.Append(mkSample(simclock.Time(i*5), 0, LabelUnknown)); err != nil {
			t.Fatal(err)
		}
	}
	// SLO violated from t=10 to t=20 inclusive.
	s.Relabel(func(t simclock.Time) Label {
		if t >= 10 && t <= 20 {
			return LabelAbnormal
		}
		return LabelNormal
	})
	wantAbnormal := map[simclock.Time]bool{10: true, 15: true, 20: true}
	for _, sm := range s.All() {
		want := LabelNormal
		if wantAbnormal[sm.Time] {
			want = LabelAbnormal
		}
		if sm.Label != want {
			t.Errorf("sample at %v label = %v, want %v", sm.Time, sm.Label, want)
		}
	}
}

func TestSeriesAllIsCopy(t *testing.T) {
	s := NewSeries(0)
	if err := s.Append(mkSample(0, 1, LabelNormal)); err != nil {
		t.Fatal(err)
	}
	all := s.All()
	all[0].Values.Set(CPUTotal, 999)
	if got, _ := s.Last(); got.Values.Get(CPUTotal) == 999 {
		t.Error("All() must return a copy")
	}
}

// TestSeriesRowsInto: a wrapped ring converts to the rows and labels of
// All, oldest first, in capacity-capped rows, and a second conversion
// into the returned buffers allocates nothing.
func TestSeriesRowsInto(t *testing.T) {
	s, err := NewBoundedSeries(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sm := mkSample(simclock.Time(i), float64(i), Label(i%3))
		sm.Values.Set(PageFaults, float64(-i))
		if err := s.Append(sm); err != nil {
			t.Fatal(err)
		}
	}
	backing, rows, labels := s.RowsInto(nil, nil, nil)
	all := s.All()
	if len(rows) != len(all) || len(labels) != len(all) {
		t.Fatalf("RowsInto gave %d rows and %d labels, want %d", len(rows), len(labels), len(all))
	}
	for i, sm := range all {
		if len(rows[i]) != NumAttributes || cap(rows[i]) != NumAttributes {
			t.Errorf("row %d has len %d cap %d, want %d", i, len(rows[i]), cap(rows[i]), NumAttributes)
		}
		for j, v := range sm.Values {
			if rows[i][j] != v {
				t.Errorf("row %d col %d = %v, want %v", i, j, rows[i][j], v)
			}
		}
		if labels[i] != sm.Label {
			t.Errorf("label %d = %v, want %v", i, labels[i], sm.Label)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		backing, rows, labels = s.RowsInto(backing, rows, labels)
	}); allocs != 0 {
		t.Errorf("RowsInto into warm buffers allocates %v/op, want 0", allocs)
	}
}

func TestLabelString(t *testing.T) {
	tests := []struct {
		label Label
		want  string
	}{
		{LabelUnknown, "unknown"},
		{LabelNormal, "normal"},
		{LabelAbnormal, "abnormal"},
	}
	for _, tt := range tests {
		if got := tt.label.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.label), got, tt.want)
		}
	}
}
