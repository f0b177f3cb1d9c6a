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
	if err := s.CollectColumnar(now, label, store); err != nil {
		return nil, err
	}
	out := make(map[substrate.VMID]metrics.Sample, len(s.vmIDs))
	for i, id := range s.vmIDs {
		sm := metrics.Sample{Time: store.Time(0), Label: store.Label(0)}
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
