package server

import (
	"bytes"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/substrate"
)

// TestServerWarmFailover: a cold replica restored from a checkpoint and
// fed the post-checkpoint samples must publish a byte-identical
// subsequent alert stream and audit log. The checkpoint is taken in the
// quiet zone between fault episodes (t=700: models trained at 600, the
// next episode starts at 900) — the periodic checkpointer skips
// untrained tenants the same way.
func TestServerWarmFailover(t *testing.T) {
	const ckptAt = 700
	tenants := []string{"east", "west"}
	traces := make(map[string]map[substrate.VMID][]metrics.Sample, len(tenants))
	build := func(trainAtS int64) []TenantConfig {
		cfgs := make([]TenantConfig, 0, len(tenants))
		for i, id := range tenants {
			seed := int64(400 + i*31)
			if traces[id] == nil {
				traces[id] = tenantTraces(id, 2, seed)
			}
			cfgs = append(cfgs, TenantConfig{
				ID:      id,
				VMs:     sortedVMs(traces[id]),
				Control: testControlConfig(seed, trainAtS),
			})
		}
		return cfgs
	}

	// Primary: train live, checkpoint at the quiet point, keep going.
	primary, err := New(build(testTrainAt), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	feed(t, primary, traces, 0, ckptAt)
	var ckpt bytes.Buffer
	// Every accepted batch is enqueued ahead of the barrier, so the
	// checkpoint captures tick state exactly at the watermark.
	if err := primary.Checkpoint(&ckpt); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	feed(t, primary, traces, ckptAt+5, testHorizon)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Failure(); err != nil {
		t.Fatalf("primary failed: %v", err)
	}

	// Replica: never trains online (TrainAtS=0) — its models come solely
	// from the checkpoint — and sees only the post-checkpoint suffix.
	replica, err := New(build(0), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	feed(t, replica, traces, ckptAt+5, testHorizon)
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replica.Failure(); err != nil {
		t.Fatalf("replica failed: %v", err)
	}

	// The primary's post-checkpoint alert stream, canonically ordered.
	var wantAlerts []Alert
	for _, a := range drainAlerts(primary) {
		if a.Time.Seconds() > ckptAt {
			wantAlerts = append(wantAlerts, a)
		}
	}
	wantAlerts = canonicalAlerts(wantAlerts)
	gotAlerts := canonicalAlerts(drainAlerts(replica))
	if len(wantAlerts) == 0 {
		t.Fatal("primary produced no post-checkpoint alerts; scenario too quiet to prove failover")
	}
	want, got := mustJSON(t, wantAlerts), mustJSON(t, gotAlerts)
	if !bytes.Equal(want, got) {
		t.Errorf("failover alert streams differ:\n got %s\nwant %s", got, want)
	}

	var wantAudit []AuditEntry
	for _, a := range drainAudit(primary) {
		if a.Time.Seconds() > ckptAt {
			wantAudit = append(wantAudit, a)
		}
	}
	wantAudit = canonicalAudit(wantAudit)
	gotAudit := canonicalAudit(drainAudit(replica))
	want, got = mustJSON(t, wantAudit), mustJSON(t, gotAudit)
	if !bytes.Equal(want, got) {
		t.Errorf("failover audit logs differ:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreRejectsBadCheckpoints: version and topology mismatches are
// refused before any state is installed, and restore after Start is an
// error.
func TestRestoreRejectsBadCheckpoints(t *testing.T) {
	traces := map[string]map[substrate.VMID][]metrics.Sample{
		"solo": tenantTraces("solo", 1, 3),
	}
	mk := func() *Server {
		s, err := New([]TenantConfig{{
			ID:      "solo",
			VMs:     sortedVMs(traces["solo"]),
			Control: testControlConfig(3, 0),
		}}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := mk()
	if err := s.Restore(bytes.NewReader([]byte(`{"version":99,"ticks":{"solo":10},"models":{}}`))); err == nil {
		t.Error("restore accepted an unknown checkpoint version")
	}
	s = mk()
	if err := s.Restore(bytes.NewReader([]byte(`{"version":1,"ticks":{"other":10},"models":{}}`))); err == nil {
		t.Error("restore accepted a checkpoint missing this topology's tenant")
	}
	s = mk()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Restore(bytes.NewReader([]byte(`{}`))); err == nil {
		t.Error("restore accepted a running server")
	}
}

// failoverTopology is two one-VM tenants that train at trainAtS.
func failoverTopology(trainAtS int64) ([]TenantConfig, map[string]map[substrate.VMID][]metrics.Sample) {
	traces := make(map[string]map[substrate.VMID][]metrics.Sample, 2)
	var cfgs []TenantConfig
	for i, id := range []string{"east", "west"} {
		seed := int64(400 + i*31)
		traces[id] = tenantTraces(id, 1, seed)
		cfgs = append(cfgs, TenantConfig{ID: id, VMs: sortedVMs(traces[id]), Control: testControlConfig(seed, trainAtS)})
	}
	return cfgs, traces
}

// FuzzCheckpointRestore: Restore on a fresh server never panics, and a
// checkpoint it rejects leaves nothing behind — no tenant trained, no
// resume point moved. The seeds are a real checkpoint of a trained
// server and the bodies TestRestoreRejectsBadCheckpoints refuses.
func FuzzCheckpointRestore(f *testing.F) {
	cfgs, traces := failoverTopology(testTrainAt)
	primary, err := New(cfgs, Config{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := primary.Start(); err != nil {
		f.Fatal(err)
	}
	feed(f, primary, traces, 0, testTrainAt+5)
	var ckpt bytes.Buffer
	if err := primary.Checkpoint(&ckpt); err != nil {
		f.Fatalf("checkpoint: %v", err)
	}
	if err := primary.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt.Bytes())
	f.Add([]byte(`{"version":99,"ticks":{"solo":10},"models":{}}`))
	f.Add([]byte(`{"version":1,"ticks":{"other":10},"models":{}}`))
	f.Add([]byte(`{}`))

	replicaCfgs, _ := failoverTopology(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(replicaCfgs, Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if s.Restore(bytes.NewReader(body)) == nil {
			return
		}
		for id, tn := range s.tenants {
			if tn.ctl.Trained() || tn.resumeFrom != 0 {
				t.Fatalf("rejected checkpoint left tenant %s trained=%v resumeFrom=%v", id, tn.ctl.Trained(), tn.resumeFrom)
			}
		}
	})
}
