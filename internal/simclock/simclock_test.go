package simclock

import (
	"testing"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	tests := []struct {
		name string
		base Time
		add  int64
		want Time
	}{
		{name: "zero plus zero", base: 0, add: 0, want: 0},
		{name: "zero plus five", base: 0, add: 5, want: 5},
		{name: "advance across minute", base: 58, add: 5, want: 63},
		{name: "negative delta", base: 10, add: -3, want: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.base.Add(tt.add); got != tt.want {
				t.Errorf("Add(%d) = %v, want %v", tt.add, got, tt.want)
			}
		})
	}
}

func TestTimeSub(t *testing.T) {
	if got := Time(100).Sub(Time(40)); got != 60 {
		t.Errorf("Sub = %d, want 60", got)
	}
	if got := Time(40).Sub(Time(100)); got != -60 {
		t.Errorf("Sub = %d, want -60", got)
	}
}

func TestTimeComparisons(t *testing.T) {
	if !Time(1).Before(Time(2)) {
		t.Error("1s should be before 2s")
	}
	if !Time(2).After(Time(1)) {
		t.Error("2s should be after 1s")
	}
	if Time(2).Before(Time(2)) || Time(2).After(Time(2)) {
		t.Error("equal instants are neither before nor after")
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(42).String(); got != "42s" {
		t.Errorf("String() = %q, want \"42s\"", got)
	}
}

func TestTimeDuration(t *testing.T) {
	if got := Time(90).Duration(); got != 90*time.Second {
		t.Errorf("Duration() = %v, want 90s", got)
	}
}
