package metrics

import "testing"

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
