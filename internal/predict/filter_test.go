package predict

import (
	"testing"
	"testing/quick"
)

func TestNewAlarmFilterValidation(t *testing.T) {
	if _, err := NewAlarmFilter(0, 4); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewAlarmFilter(5, 4); err == nil {
		t.Error("k>w should fail")
	}
	if _, err := NewAlarmFilter(1, 0); err == nil {
		t.Error("w=0 should fail")
	}
	if _, err := NewAlarmFilter(3, 65); err == nil {
		t.Error("w>64 should fail")
	}
	f, err := NewAlarmFilter(DefaultAlarmK, DefaultAlarmW)
	if err != nil {
		t.Fatal(err)
	}
	if f.K() != 3 || f.W() != 4 {
		t.Errorf("K/W = %d/%d", f.K(), f.W())
	}
}

func TestFilterSuppressesTransientSpike(t *testing.T) {
	f, err := NewAlarmFilter(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A single spike followed by quiet: never confirmed.
	seq := []bool{false, true, false, false, false}
	for i, a := range seq {
		if f.Offer(a) {
			t.Errorf("transient spike confirmed at index %d", i)
		}
	}
}

func TestFilterConfirmsPersistentAlerts(t *testing.T) {
	f, err := NewAlarmFilter(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	results := []bool{}
	for _, a := range []bool{true, true, true, true} {
		results = append(results, f.Offer(a))
	}
	// Confirmation exactly at the third alert.
	want := []bool{false, false, true, true}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("offer %d = %v, want %v", i, results[i], want[i])
		}
	}
}

func TestFilterToleratesOneGap(t *testing.T) {
	f, err := NewAlarmFilter(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// alert, alert, miss, alert => 3 of last 4 => confirmed.
	seq := []bool{true, true, false, true}
	var last bool
	for _, a := range seq {
		last = f.Offer(a)
	}
	if !last {
		t.Error("3-of-4 with one gap should confirm")
	}
}

func TestFilterK1ConfirmsImmediately(t *testing.T) {
	f, err := NewAlarmFilter(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Offer(false) {
		t.Error("no alert should not confirm")
	}
	if !f.Offer(true) {
		t.Error("k=1 should confirm on first alert")
	}
}

func TestFilterReset(t *testing.T) {
	f, err := NewAlarmFilter(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f.Offer(true)
	f.Offer(true)
	f.Reset()
	if f.Offer(true) {
		t.Error("after reset a single alert should not confirm (k=2)")
	}
}

func TestPropertyLargerKNeverConfirmsMore(t *testing.T) {
	// For the same alert stream, a filter with larger K confirms a subset
	// of what a filter with smaller K confirms (monotonicity that drives
	// Figure 12: larger k filters more false alarms).
	f := func(stream []bool) bool {
		f2, err := NewAlarmFilter(2, 4)
		if err != nil {
			return false
		}
		f3, err := NewAlarmFilter(3, 4)
		if err != nil {
			return false
		}
		for _, a := range stream {
			c2 := f2.Offer(a)
			c3 := f3.Offer(a)
			if c3 && !c2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlarmFilterOfferAllocFree(t *testing.T) {
	f, err := NewAlarmFilter(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		f.Offer(i%3 == 0)
		i++
		if i%17 == 0 {
			f.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("Offer/Reset allocates %.1f/op, want 0", allocs)
	}
}

// TestFilterWraparoundEviction pins the window semantics at exactly W
// offers and one past it: the W+1th offer must evict the oldest vote,
// not stack on top of it.
func TestFilterWraparoundEviction(t *testing.T) {
	f, err := NewAlarmFilter(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Offers 1-3: T,T,T — confirmed from the 3rd (k reached before the
	// window is even full).
	for i, want := range []bool{false, false, true} {
		if got := f.Offer(true); got != want {
			t.Fatalf("offer %d = %v, want %v", i+1, got, want)
		}
	}
	// Offer 4 fills the window: T,T,T,F still holds 3 votes.
	if !f.Offer(false) {
		t.Fatal("offer 4: window T,T,T,F should stay confirmed")
	}
	// Offer 5 wraps: the first T is evicted, window T,T,F,F = 2 < k.
	if f.Offer(false) {
		t.Fatal("offer 5: eviction should drop the count below k")
	}
	// Offer 6 evicts another T: T,F,F,T = 2 < k.
	if f.Offer(true) {
		t.Fatal("offer 6: still only 2 of last 4")
	}
}

// TestFilterDuplicateTickOffers documents the contract that the filter
// has no notion of time: two Offer calls are two independent votes, so
// the caller must offer exactly once per sampling tick or k-of-w
// becomes k-of-(w/duplicates).
func TestFilterDuplicateTickOffers(t *testing.T) {
	f, err := NewAlarmFilter(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A single tick's alert offered three times confirms immediately —
	// exactly the transient-suppression bypass the per-tick contract
	// exists to prevent.
	f.Offer(true)
	f.Offer(true)
	if !f.Offer(true) {
		t.Fatal("three duplicate offers should count as three votes")
	}
}

// TestFilterResetDropsStaleSlots: after Reset, the votes cast before
// it count as quiet. A stale vote leaking into the count would
// re-confirm instantly after a prevention action.
func TestFilterResetDropsStaleSlots(t *testing.T) {
	f, err := NewAlarmFilter(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f.Offer(true) // saturate the window with alert votes
	}
	f.Reset()
	// Post-reset, two fresh alerts must NOT confirm.
	if f.Offer(true) {
		t.Fatal("first post-reset offer confirmed: a stale vote counted")
	}
	if f.Offer(true) {
		t.Fatal("second post-reset offer confirmed: a stale vote counted")
	}
	if !f.Offer(true) {
		t.Fatal("third post-reset alert should confirm (k=3 fresh votes)")
	}
}
