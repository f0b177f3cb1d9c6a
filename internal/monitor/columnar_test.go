package monitor

import (
	"testing"

	"prepare/internal/columnar"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// collect runs one CollectColumnar tick into a fresh store and reads
// every VM's row back with RowInto, keyed by VM.
func collect(s *Sampler, now simclock.Time, label metrics.Label) (map[substrate.VMID]metrics.Sample, error) {
	store, err := columnar.New(len(s.vmIDs), 1)
	if err != nil {
		return nil, err
	}
	return collectInto(s, store, now, label)
}

// newHistory builds a store that keeps every tick the sampler collects.
func newHistory(t *testing.T, s *Sampler) *columnar.Store {
	t.Helper()
	store, err := columnar.NewGrowing(len(s.vmIDs))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// collectInto runs one CollectColumnar tick into store and reads every
// VM's row back with RowInto, keyed by VM.
func collectInto(s *Sampler, store *columnar.Store, now simclock.Time, label metrics.Label) (map[substrate.VMID]metrics.Sample, error) {
	if err := s.CollectColumnar(now, label, store); err != nil {
		return nil, err
	}
	out := make(map[substrate.VMID]metrics.Sample, len(s.vmIDs))
	for i, id := range s.vmIDs {
		sm := metrics.Sample{Time: store.Time(0), Label: label}
		store.RowInto(i, sm.Values[:])
		out[id] = sm
	}
	return out, nil
}

// TestCollectColumnarStoreSizeMismatch rejects a store built for a
// different fleet size.
func TestCollectColumnarStoreSizeMismatch(t *testing.T) {
	s, err := NewSampler(newFakeSource(), []substrate.VMID{"vm1"}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := columnar.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CollectColumnar(1, metrics.LabelNormal, store); err == nil {
		t.Fatal("expected a fleet-size mismatch error")
	}
}

// TestCollectRejectsEarlierTick: a tick earlier than the store's latest
// is refused before anything is staged; an equal one is fine.
func TestCollectRejectsEarlierTick(t *testing.T) {
	s, err := NewSampler(newFakeSource(), []substrate.VMID{"vm1"}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := newHistory(t, s)
	if _, err := collectInto(s, store, 10, metrics.LabelNormal); err != nil {
		t.Fatal(err)
	}
	if _, err := collectInto(s, store, 5, metrics.LabelNormal); err == nil {
		t.Error("collecting an earlier tick should fail")
	}
	if store.Ticks() != 1 {
		t.Errorf("store holds %d ticks after the refused collect, want 1", store.Ticks())
	}
	if _, err := collectInto(s, store, 10, metrics.LabelNormal); err != nil {
		t.Errorf("equal-time collect should succeed: %v", err)
	}
}
