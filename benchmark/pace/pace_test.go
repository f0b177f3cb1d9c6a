package pace

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// An operation that overruns delays the ones after it, and the schedule
// does not shift to hide that: their due times stay where they were,
// their lateness is recorded, and once the generator has caught up it
// sleeps again.
func TestOpenLoopLatenessAccounting(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	p := &Pacer{Now: clock.Now, Sleep: clock.Sleep, Start: clock.now, Every: 10 * time.Millisecond}
	work := []time.Duration{2, 35, 2, 2, 2, 2} // milliseconds each operation takes
	for k, w := range work {
		due := p.Wait(k)
		if want := p.Start.Add(time.Duration(k) * p.Every); !due.Equal(want) {
			t.Fatalf("operation %d due %v, want %v: the schedule shifted", k, due.Sub(p.Start), want.Sub(p.Start))
		}
		clock.now = clock.now.Add(w * time.Millisecond)
	}
	// Operation 1 runs 10..45 ms, so 2, 3 and 4 (due at 20, 30, 40) start
	// at 45, 47 and 49; by 5 (due at 50) the generator has caught up.
	want := []float64{0, 0, 25, 17, 9, 1}
	for k, w := range want {
		if got := p.LateMs[k]; got != w {
			t.Errorf("operation %d was %v ms late, want %v", k, got, w)
		}
	}
	if len(p.LateMs) != len(work) {
		t.Errorf("%d lateness samples for %d operations", len(p.LateMs), len(work))
	}
}
