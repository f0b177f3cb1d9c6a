package markov

import (
	"math"
	"testing"
	"testing/quick"
)

func sumsToOne(t *testing.T, dist []float64, ctx string) {
	t.Helper()
	sum := 0.0
	for _, p := range dist {
		if p < -1e-12 {
			t.Errorf("%s: negative probability %g", ctx, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s: distribution sums to %g", ctx, sum)
	}
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewSimpleChain(0); err == nil {
		t.Error("zero states should fail")
	}
	if _, err := NewTwoDepChain(-1); err == nil {
		t.Error("negative states should fail")
	}
}

func TestObserveRange(t *testing.T) {
	s, err := NewSimpleChain(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(3); err == nil {
		t.Error("out-of-range observation should fail")
	}
	if err := s.Observe(-1); err == nil {
		t.Error("negative observation should fail")
	}
	d, err := NewTwoDepChain(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Observe(5); err == nil {
		t.Error("out-of-range observation should fail")
	}
}

func TestUntrainedPredictsUniform(t *testing.T) {
	s, err := NewSimpleChain(4)
	if err != nil {
		t.Fatal(err)
	}
	dist := s.Predict(3)
	sumsToOne(t, dist, "simple untrained")
	for _, p := range dist {
		if math.Abs(p-0.25) > 1e-12 {
			t.Errorf("untrained simple chain should be uniform, got %v", dist)
		}
	}
	d, err := NewTwoDepChain(4)
	if err != nil {
		t.Fatal(err)
	}
	sumsToOne(t, d.Predict(3), "twodep untrained")
}

func TestPredictZeroStepsIsCurrentState(t *testing.T) {
	s, err := NewSimpleChain(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	dist := s.Predict(0)
	if dist[2] != 1 {
		t.Errorf("Predict(0) = %v, want point mass on 2", dist)
	}
}

func TestSimpleChainLearnsCycle(t *testing.T) {
	s, err := NewSimpleChain(3)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic cycle 0 -> 1 -> 2 -> 0.
	seq := make([]int, 0, 300)
	for i := 0; i < 100; i++ {
		seq = append(seq, 0, 1, 2)
	}
	if err := s.Fit(seq); err != nil {
		t.Fatal(err)
	}
	// Current state is 2 (last of the cycle); one step ahead must be 0.
	dist := s.Predict(1)
	sumsToOne(t, dist, "cycle step1")
	if ArgMax(dist) != 0 {
		t.Errorf("one step from 2 should be 0, got %v", dist)
	}
	// Three steps ahead returns to 2.
	if got := ArgMax(s.Predict(3)); got != 2 {
		t.Errorf("three steps from 2 should be 2, got %d", got)
	}
}

func TestTwoDepDisambiguatesSlope(t *testing.T) {
	// Triangle wave 0,1,2,3,2,1,0,1,2,3,... The simple chain cannot know
	// whether state 2 moves to 3 or to 1; the 2-dependent chain can.
	wave := []int{0, 1, 2, 3, 2, 1}
	seq := make([]int, 0, 600)
	for i := 0; i < 100; i++ {
		seq = append(seq, wave...)
	}
	// End mid-ascent: ... 0, 1, 2 with prev=1, cur=2 -> next must be 3.
	seq = append(seq, 0, 1, 2)

	d, err := NewTwoDepChain(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Fit(seq); err != nil {
		t.Fatal(err)
	}
	distD := d.Predict(1)
	sumsToOne(t, distD, "twodep slope")
	if ArgMax(distD) != 3 {
		t.Errorf("2-dep chain on ascent at 2 should predict 3, got %v", distD)
	}
	if distD[3] < 0.9 {
		t.Errorf("2-dep chain should be confident, P(3) = %g", distD[3])
	}

	s, err := NewSimpleChain(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(seq); err != nil {
		t.Fatal(err)
	}
	distS := s.Predict(1)
	// The simple chain must be torn roughly 50/50 between 1 and 3.
	if distS[3] > 0.8 || distS[1] > 0.8 {
		t.Errorf("simple chain should be ambiguous on a triangle wave, got %v", distS)
	}
	if distD[3] <= distS[3] {
		t.Errorf("2-dep (%.2f) should beat simple (%.2f) on slope prediction", distD[3], distS[3])
	}
}

func TestTwoDepMultiStepOnWave(t *testing.T) {
	wave := []int{0, 1, 2, 3, 2, 1}
	seq := make([]int, 0, 600)
	for i := 0; i < 100; i++ {
		seq = append(seq, wave...)
	}
	seq = append(seq, 0, 1) // prev=0, cur=1, ascending
	d, err := NewTwoDepChain(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Fit(seq); err != nil {
		t.Fatal(err)
	}
	// Two steps ahead of (0,1) is 3.
	if got := ArgMax(d.Predict(2)); got != 3 {
		t.Errorf("two steps from ascending 1 should be 3, got %d (%v)", got, d.Predict(2))
	}
}

func TestTwoDepBackoffForUnseenPair(t *testing.T) {
	d, err := NewTwoDepChain(3)
	if err != nil {
		t.Fatal(err)
	}
	// Train only on 0->1->2 transitions.
	if err := d.Fit([]int{0, 1, 2, 0, 1, 2, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	// Manufacture an unseen combined state (2, 1): observe 1 after cur=2.
	if err := d.Observe(1); err != nil {
		t.Fatal(err)
	}
	dist := d.Predict(1)
	sumsToOne(t, dist, "backoff")
	// Backoff uses cur=1 statistics, which always moved to 2.
	if ArgMax(dist) != 2 {
		t.Errorf("backoff should predict 2, got %v", dist)
	}
}

func TestTwoDepSingleObservation(t *testing.T) {
	d, err := NewTwoDepChain(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Observe(1); err != nil {
		t.Fatal(err)
	}
	sumsToOne(t, d.Predict(2), "single obs")
	dist := d.Predict(0)
	if dist[1] != 1 {
		t.Errorf("Predict(0) after one obs = %v, want point mass on 1", dist)
	}
}

func TestPropertyDistributionsValid(t *testing.T) {
	f := func(obsRaw []uint8, stepsRaw uint8) bool {
		const states = 5
		steps := int(stepsRaw % 12)
		s, err := NewSimpleChain(states)
		if err != nil {
			return false
		}
		d, err := NewTwoDepChain(states)
		if err != nil {
			return false
		}
		for _, o := range obsRaw {
			bin := int(o) % states
			if s.Observe(bin) != nil || d.Observe(bin) != nil {
				return false
			}
		}
		for _, dist := range [][]float64{s.Predict(steps), d.Predict(steps)} {
			sum := 0.0
			for _, p := range dist {
				if p < -1e-12 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{0.1, 0.5, 0.4}); got != 1 {
		t.Errorf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax([]float64{0.5, 0.5}); got != 0 {
		t.Errorf("tie should break low, got %d", got)
	}
}

func TestLongHorizonApproachesStationary(t *testing.T) {
	s, err := NewSimpleChain(2)
	if err != nil {
		t.Fatal(err)
	}
	// A noisy (aperiodic) alternation: mostly flips, sometimes repeats.
	// The stationary distribution is 50/50 and long-horizon predictions
	// must approach it.
	seq := make([]int, 0, 300)
	cur := 0
	for i := 0; i < 300; i++ {
		if i%7 != 0 { // flip 6 times out of 7
			cur = 1 - cur
		}
		seq = append(seq, cur)
	}
	if err := s.Fit(seq); err != nil {
		t.Fatal(err)
	}
	long := s.Predict(1000)
	if math.Abs(long[0]-0.5) > 0.1 {
		t.Errorf("long-horizon distribution %v should approach [0.5 0.5]", long)
	}
	sumsToOne(t, long, "aperiodic alternating")
}
