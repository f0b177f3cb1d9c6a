package server

import (
	"bytes"
	"encoding/json"
	"sort"
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

// trainedCheckpoint is a checkpoint of a trained two-tenant server.
// With retrainS > 0 the tenants retrain incrementally, so the
// checkpoint carries their TAN count tables too.
func trainedCheckpoint(tb testing.TB, retrainS int64) []byte {
	tb.Helper()
	cfgs, traces := failoverTopology(testTrainAt)
	for i := range cfgs {
		cfgs[i].Control.RetrainIntervalS = retrainS
	}
	primary, err := New(cfgs, Config{Shards: 2})
	if err != nil {
		tb.Fatal(err)
	}
	if err := primary.Start(); err != nil {
		tb.Fatal(err)
	}
	feed(tb, primary, traces, 0, testTrainAt+5)
	var ckpt bytes.Buffer
	if err := primary.Checkpoint(&ckpt); err != nil {
		tb.Fatalf("checkpoint: %v", err)
	}
	if err := primary.Close(); err != nil {
		tb.Fatal(err)
	}
	return ckpt.Bytes()
}

// hostileRetrainS is the retrain interval of the checkpoint the
// hostile-count bodies are cut from.
const hostileRetrainS = 60

// hostileCountBodies returns copies of ckpt with one model count
// replaced by a value no count can take — negative, fractional or
// huge — in the first Markov transition count and in the first TAN
// count-table cell.
func hostileCountBodies(tb testing.TB, ckpt []byte) map[string][]byte {
	tb.Helper()
	bodies := make(map[string][]byte)
	for _, site := range []struct{ name, key string }{
		{"chain", `"counts":[[`},
		{"table", `"marg":[[[`},
	} {
		at := bytes.Index(ckpt, []byte(site.key))
		if at < 0 {
			tb.Fatalf("checkpoint has no %s", site.key)
		}
		start := at + len(site.key)
		end := start + bytes.IndexAny(ckpt[start:], ",]")
		for _, v := range []string{"-1", "0.5", "1e308"} {
			body := append([]byte(nil), ckpt[:start]...)
			body = append(body, v...)
			bodies[site.name+" count "+v] = append(body, ckpt[end:]...)
		}
	}
	return bodies
}

// extraVMBody returns ckpt with tenant east's one VM model copied under
// a VM name the topology does not have.
func extraVMBody(tb testing.TB, ckpt []byte) []byte {
	tb.Helper()
	// edit decodes the JSON object raw, lets change alter its fields and
	// re-encodes it.
	edit := func(raw []byte, change func(map[string]json.RawMessage)) []byte {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			tb.Fatal(err)
		}
		change(obj)
		out, err := json.Marshal(obj)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	return edit(ckpt, func(snap map[string]json.RawMessage) {
		snap["models"] = edit(snap["models"], func(models map[string]json.RawMessage) {
			models["tenants"] = edit(models["tenants"], func(tenants map[string]json.RawMessage) {
				tenants["east"] = edit(tenants["east"], func(east map[string]json.RawMessage) {
					east["vms"] = edit(east["vms"], func(vms map[string]json.RawMessage) {
						var model json.RawMessage
						for _, m := range vms { // east has one VM
							model = m
						}
						vms["vm-ghost"] = model
					})
				})
			})
		})
	})
}

// restoreLeavesNothing restores body into a fresh replica over cfgs
// and, if the restore is rejected, requires that no tenant was trained
// and no resume point moved. It reports whether the restore was
// rejected.
func restoreLeavesNothing(t *testing.T, cfgs []TenantConfig, body []byte) bool {
	t.Helper()
	s, err := New(cfgs, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Restore(bytes.NewReader(body)) == nil {
		return false
	}
	for id, tn := range s.tenants {
		if tn.ctl.Trained() || tn.resumeFrom != 0 {
			t.Fatalf("rejected checkpoint left tenant %s trained=%v resumeFrom=%v", id, tn.ctl.Trained(), tn.resumeFrom)
		}
	}
	return true
}

// TestRestoreRejectsHostileCounts: a checkpoint whose model counts are
// negative, fractional or huge is refused, and leaves nothing behind.
func TestRestoreRejectsHostileCounts(t *testing.T) {
	ckpt := trainedCheckpoint(t, hostileRetrainS)
	replicaCfgs, _ := failoverTopology(0)
	if restoreLeavesNothing(t, replicaCfgs, ckpt) {
		t.Fatal("the unmodified checkpoint was rejected")
	}
	for name, body := range hostileCountBodies(t, ckpt) {
		if !restoreLeavesNothing(t, replicaCfgs, body) {
			t.Errorf("%s: restore accepted the checkpoint", name)
		}
	}
}

// FuzzCheckpointRestore: Restore on a fresh server never panics, and a
// checkpoint it rejects leaves nothing behind — no tenant trained, no
// resume point moved. The seeds are a real checkpoint of a trained
// server, the same checkpoint with a model for a VM the topology does
// not have, the bodies TestRestoreRejectsBadCheckpoints refuses and the
// hostile-count bodies TestRestoreRejectsHostileCounts refuses.
func FuzzCheckpointRestore(f *testing.F) {
	ckpt := trainedCheckpoint(f, 0)
	f.Add(ckpt)
	f.Add(extraVMBody(f, ckpt))
	f.Add([]byte(`{"version":99,"ticks":{"solo":10},"models":{}}`))
	f.Add([]byte(`{"version":1,"ticks":{"other":10},"models":{}}`))
	f.Add([]byte(`{}`))
	hostile := hostileCountBodies(f, trainedCheckpoint(f, hostileRetrainS))
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(hostile[name])
	}

	replicaCfgs, _ := failoverTopology(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		restoreLeavesNothing(t, replicaCfgs, body)
	})
}
