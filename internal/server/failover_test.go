package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"prepare/internal/bayes"
	"prepare/internal/binenc"
	"prepare/internal/control"
	"prepare/internal/detector"
	"prepare/internal/markov"
	"prepare/internal/metrics"
	"prepare/internal/substrate"
)

// TestServerWarmFailover: for every detector kind, a cold replica
// restored from a checkpoint and fed the post-checkpoint samples must
// publish a byte-identical subsequent alert stream and audit log. The
// checkpoint is taken in the quiet zone between fault episodes (t=700:
// models trained at 600, the next episode starts at 900): alarm
// filters, cooldowns and pending validations are not in a checkpoint,
// and there they are empty. The periodic checkpointer skips untrained
// tenants the same way.
func TestServerWarmFailover(t *testing.T) {
	for _, spec := range []detector.Spec{
		{Kind: detector.KindTAN},
		{Kind: detector.KindEWMA},
		{Kind: detector.KindZRobust},
		{Kind: detector.KindKMeans},
		{Kind: detector.KindEnsemble, Members: []string{detector.KindTAN, detector.KindEWMA}},
	} {
		name := spec.Kind
		if len(spec.Members) > 0 {
			name += ":" + strings.Join(spec.Members, "+")
		}
		t.Run(name, func(t *testing.T) { warmFailover(t, spec) })
	}
}

// warmFailover is TestServerWarmFailover for one detector spec.
func warmFailover(t *testing.T, spec detector.Spec) {
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
			ctl := testControlConfig(seed, trainAtS)
			ctl.Detector = spec
			cfgs = append(cfgs, TenantConfig{ID: id, VMs: sortedVMs(traces[id]), Control: ctl})
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

// TestRestoreRejectsBadCheckpoints: version and topology mismatches,
// malformed framing, a tan model without its count table, models of
// another detector kind and the JSON checkpoints the parent format
// wrote are refused before any state is installed, and restore after
// Start is an error.
func TestRestoreRejectsBadCheckpoints(t *testing.T) {
	replicaCfgs, _ := failoverTopology(0)
	ckpt := trainedCheckpoint(t, 0)
	if restoreLeavesNothing(t, replicaCfgs, ckpt) {
		t.Fatal("the unmodified checkpoint was rejected")
	}
	for name, body := range badCheckpointBodies(t, ckpt) {
		if !restoreLeavesNothing(t, replicaCfgs, body) {
			t.Errorf("restore accepted a checkpoint with %s", name)
		}
	}
	if err := restoreInto(t, replicaCfgs, parentCheckpoint(t)); !errors.Is(err, binenc.ErrJSON) {
		t.Errorf("parent JSON checkpoint: %v, want binenc.ErrJSON", err)
	}
	if err := restoreInto(t, replicaCfgs, versionBody(ckpt, 99)); !errors.Is(err, binenc.ErrVersion) {
		t.Errorf("version 99 checkpoint: %v, want binenc.ErrVersion", err)
	}

	ewma := ewmaCheckpoint(t)
	ewmaCfgs, _ := failoverTopology(0)
	for i := range ewmaCfgs {
		ewmaCfgs[i].Control.Detector = detector.Spec{Kind: detector.KindEWMA}
	}
	if restoreLeavesNothing(t, ewmaCfgs, ewma) {
		t.Fatal("ewma tenants rejected their own checkpoint")
	}
	if !restoreLeavesNothing(t, replicaCfgs, ewma) {
		t.Error("tan tenants accepted ewma models")
	}

	s, err := New(replicaCfgs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Restore(bytes.NewReader(ckpt)); err == nil {
		t.Error("restore accepted a running server")
	}
}

// badCheckpointBodies returns copies of ckpt broken one way each.
func badCheckpointBodies(tb testing.TB, ckpt []byte) map[string][]byte {
	tb.Helper()
	edit := func(change func(c *ckptDoc)) []byte {
		c := parseCheckpoint(tb, ckpt)
		change(&c)
		return c.bytes(tb)
	}
	east := func(c *ckptDoc) *ckptTenant { return &c.tenants[0] }
	return map[string][]byte{
		"an unknown version":                 versionBody(ckpt, 99),
		"no tick for this topology's tenant": edit(func(c *ckptDoc) { c.ticks[0].id = "other" }),
		"a tick for a tenant this server does not run": edit(func(c *ckptDoc) {
			c.ticks = append(c.ticks, ckptTick{id: "north", tick: 10})
		}),
		"a length prefix past the end": lengthPastEnd(tb, ckpt),
		"trailing bytes":               append(append([]byte(nil), ckpt...), 0),
		"a missing tenant":             edit(func(c *ckptDoc) { c.tenants = c.tenants[:1] }),
		"a duplicate VM": edit(func(c *ckptDoc) {
			e := east(c)
			e.vms = append(e.vms, e.vms[0])
		}),
		"an extra VM": edit(func(c *ckptDoc) {
			e := east(c)
			ghost := e.vms[0]
			ghost.id = "vm-ghost"
			e.vms = append(e.vms, ghost)
		}),
		"a kind mismatch": edit(func(c *ckptDoc) { east(c).vms[0].kind = detector.KindEWMA }),
		"a tan model without its count table": edit(func(c *ckptDoc) {
			vm := &east(c).vms[0]
			head, parts := payloadParts(tb, vm.payload)
			vm.payload = joinPayload(head, parts[:2]) // chains and model only
		}),
	}
}

// versionBody returns ckpt with its version byte set to v.
func versionBody(ckpt []byte, v byte) []byte {
	body := append([]byte(nil), ckpt...)
	body[len(checkpointMagic)] = v
	return body
}

// lengthPastEnd returns ckpt with its models section claiming one byte
// more than the document holds.
func lengthPastEnd(tb testing.TB, ckpt []byte) []byte {
	tb.Helper()
	body := append([]byte(nil), ckpt...)
	at := len(checkpointMagic) + 1
	at += 4 + int(binary.LittleEndian.Uint32(body[at:])) // past the ticks section
	n := binary.LittleEndian.Uint32(body[at:])
	if int(n) != len(body)-at-4 {
		tb.Fatalf("models section claims %d bytes, %d follow", n, len(body)-at-4)
	}
	binary.LittleEndian.PutUint32(body[at:], n+1)
	return body
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

// trainedCheckpoint is a checkpoint of a trained two-tenant server of
// tan detectors. With retrainS > 0 the tenants retrain incrementally.
func trainedCheckpoint(tb testing.TB, retrainS int64) []byte {
	tb.Helper()
	ckpt, _ := checkpointOf(tb, func(c *control.Config) { c.RetrainIntervalS = retrainS })
	return ckpt
}

// ewmaCheckpoint is a checkpoint of the same server running ewma
// detectors.
func ewmaCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	ckpt, _ := checkpointOf(tb, func(c *control.Config) { c.Detector = detector.Spec{Kind: detector.KindEWMA} })
	return ckpt
}

// parentCheckpoint is the trained tan server's state in the JSON
// format version 1 of the checkpoint had: tenant ticks and the engine
// model snapshot, each tenant's models the JSON model document.
func parentCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	_, models := checkpointOf(tb, func(*control.Config) {})
	tenants := make(map[string]json.RawMessage, len(models))
	ticks := make(map[string]int64, len(models))
	for id, doc := range models {
		tenants[id] = bytes.TrimSpace(doc)
		ticks[id] = testTrainAt + 5
	}
	body, err := json.Marshal(map[string]any{
		"version": 1,
		"ticks":   ticks,
		"models":  map[string]any{"version": 2, "tenants": tenants},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// checkpointOf is a checkpoint of the trained two-tenant server whose
// controller configurations configure adjusts, with each tenant's JSON
// model document taken at the same point.
func checkpointOf(tb testing.TB, configure func(*control.Config)) ([]byte, map[string][]byte) {
	tb.Helper()
	cfgs, traces := failoverTopology(testTrainAt)
	for i := range cfgs {
		configure(&cfgs[i].Control)
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
	models := make(map[string][]byte, len(cfgs))
	for _, c := range cfgs {
		if models[c.ID], err = primary.TenantModel(c.ID); err != nil {
			tb.Fatal(err)
		}
	}
	if err := primary.Close(); err != nil {
		tb.Fatal(err)
	}
	return ckpt.Bytes(), models
}

// ckptDoc is a checkpoint taken apart down to each VM's detector
// payload, so a test can break one part and put it back together.
type ckptDoc struct {
	ticks   []ckptTick
	tenants []ckptTenant
}

type ckptTick struct {
	id   string
	tick int64
}

type ckptTenant struct {
	id  string
	vms []ckptVM
}

type ckptVM struct {
	id, kind string
	payload  []byte
}

// parseCheckpoint takes ckpt apart along the layout checkpoint.go
// documents, and checks that putting it back together gives ckpt.
func parseCheckpoint(tb testing.TB, ckpt []byte) ckptDoc {
	tb.Helper()
	var c ckptDoc
	d := binenc.NewDecoder(ckpt)
	d.Header(checkpointMagic, checkpointVersion)
	d.Nested(func(d *binenc.Decoder) {
		c.ticks = make([]ckptTick, d.Len(2))
		for i := range c.ticks {
			c.ticks[i] = ckptTick{id: d.String(), tick: d.Int()}
		}
	})
	d.Nested(func(d *binenc.Decoder) {
		c.tenants = make([]ckptTenant, d.Len(5))
		for i := range c.tenants {
			tn := &c.tenants[i]
			tn.id = d.String()
			d.Nested(func(d *binenc.Decoder) {
				tn.vms = make([]ckptVM, d.Len(6))
				for j := range tn.vms {
					tn.vms[j] = ckptVM{id: d.String(), kind: d.String(), payload: d.Section()}
				}
			})
		}
	})
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(c.bytes(tb), ckpt) {
		tb.Fatal("the checkpoint taken apart and put back together differs from the original")
	}
	return c
}

// bytes puts the checkpoint back together.
func (c ckptDoc) bytes(tb testing.TB) []byte {
	tb.Helper()
	e := binenc.NewEncoder(nil)
	e.Header(checkpointMagic, checkpointVersion)
	mark := e.Begin()
	e.Uvarint(uint64(len(c.ticks)))
	for _, tk := range c.ticks {
		e.String(tk.id)
		e.Int(tk.tick)
	}
	e.End(mark)
	mark = e.Begin()
	e.Uvarint(uint64(len(c.tenants)))
	for _, tn := range c.tenants {
		e.String(tn.id)
		tmark := e.Begin()
		e.Uvarint(uint64(len(tn.vms)))
		for _, vm := range tn.vms {
			e.String(vm.id)
			e.String(vm.kind)
			e.Section(appendBytes(vm.payload))
		}
		e.End(tmark)
	}
	e.End(mark)
	b, err := e.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// payloadParts splits a model-backed detector payload into its JSON
// header and the sections after it (for tan: chains, model, counts and
// streaming state).
func payloadParts(tb testing.TB, payload []byte) (head []byte, parts [][]byte) {
	tb.Helper()
	d := binenc.NewDecoder(payload)
	n := d.Len(1)
	head = payload[:len(payload)-d.Remaining()+n]
	d = binenc.NewDecoder(payload[len(head):])
	for d.Remaining() > 0 && d.Err() == nil {
		parts = append(parts, d.Section())
	}
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return head, parts
}

// joinPayload is payloadParts' inverse.
func joinPayload(head []byte, parts [][]byte) []byte {
	e := binenc.NewEncoder(append([]byte(nil), head...))
	for _, p := range parts {
		e.Section(appendBytes(p))
	}
	b, _ := e.Finish()
	return b
}

// appendBytes is a section writer that appends p as it is.
func appendBytes(p []byte) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return append(b, p...), nil }
}

// restoreInto restores body into a fresh replica over cfgs and returns
// the error.
func restoreInto(t *testing.T, cfgs []TenantConfig, body []byte) error {
	t.Helper()
	s, err := New(cfgs, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s.Restore(bytes.NewReader(body))
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
	return rejectedLeavingNothing(t, s, body)
}

// rejectedLeavingNothing restores body into s, which has not started,
// and, if the restore is rejected, requires that s is as it was: no
// tenant trained and no resume point moved. It reports whether the
// restore was rejected.
func rejectedLeavingNothing(t *testing.T, s *Server, body []byte) bool {
	t.Helper()
	if s.Restore(bytes.NewReader(body)) == nil {
		return false
	}
	for id, tn := range s.tenants {
		if tn.ctl.Trained() || tn.resumeFrom != 0 {
			t.Fatalf("rejected checkpoint left tenant %s trained=%v resumeFrom=%v", id, tn.ctl.Trained(), tn.resumeFrom)
		}
	}
	for i, sh := range s.shards {
		if sh.lastTick != 0 {
			t.Fatalf("rejected checkpoint moved shard %d to tick %v", i, sh.lastTick)
		}
	}
	return true
}

// hostileRetrainS is the retrain interval of the checkpoint the
// hostile-count bodies are cut from.
const hostileRetrainS = 60

// hostileCountBodies returns copies of ckpt whose first tan model
// holds counts or probabilities no training produces: a count above
// 2^32-1, a Markov column whose counts total past 2^32-1, count-table
// class counts that do not sum to the total, and a NaN, zero or
// above-one CPT cell.
func hostileCountBodies(tb testing.TB, ckpt []byte) map[string][]byte {
	tb.Helper()
	// withPart returns ckpt with section k of east's first payload
	// replaced by what write appends.
	withPart := func(k int, write func(e *binenc.Encoder, part []byte)) []byte {
		c := parseCheckpoint(tb, ckpt)
		vm := &c.tenants[0].vms[0]
		head, parts := payloadParts(tb, vm.payload)
		e := binenc.NewEncoder(nil)
		write(&e, parts[k])
		part, err := e.Finish()
		if err != nil {
			tb.Fatal(err)
		}
		parts[k] = part
		vm.payload = joinPayload(head, parts)
		return c.bytes(tb)
	}
	const chainsPart, modelPart, countsPart = 0, 1, 2
	// chains rewrites the chains section with the first chain edited.
	chains := func(edit func(s *markov.Snapshot)) []byte {
		return withPart(chainsPart, func(e *binenc.Encoder, part []byte) {
			d := binenc.NewDecoder(part)
			snaps := make([]markov.Snapshot, d.Len(6))
			for i := range snaps {
				snaps[i].Decode(&d)
			}
			if err := d.Finish(); err != nil {
				tb.Fatal(err)
			}
			edit(&snaps[0])
			e.Uvarint(uint64(len(snaps)))
			for i := range snaps {
				snaps[i].Encode(e)
			}
		})
	}
	model := func(edit func(s *bayes.Snapshot)) []byte {
		return withPart(modelPart, func(e *binenc.Encoder, part []byte) {
			var s bayes.Snapshot
			d := binenc.NewDecoder(part)
			s.Decode(&d)
			if err := d.Finish(); err != nil {
				tb.Fatal(err)
			}
			edit(&s)
			s.Encode(e)
		})
	}
	bodies := map[string][]byte{
		// The encoder refuses such a count, so the block is written by
		// hand: one count of 2^32, then zero runs for the other cells.
		"chain count above 2^32-1": withPart(chainsPart, func(e *binenc.Encoder, part []byte) {
			d := binenc.NewDecoder(part)
			snaps := make([]markov.Snapshot, d.Len(6))
			for i := range snaps {
				snaps[i].Decode(&d)
			}
			e.Uvarint(uint64(len(snaps)))
			for i := range snaps {
				s := &snaps[i]
				if i > 0 {
					s.Encode(e)
					continue
				}
				e.Uvarint(uint64(s.Order))
				e.Uvarint(uint64(s.States))
				e.Int(int64(s.Cur))
				e.Int(int64(s.Prev))
				e.Int(int64(s.NSeen))
				cells := len(s.Counts) * s.States
				e.Uvarint(uint64(cells))
				e.Uvarint(uint64(math.MaxUint32+1) << 1)
				for left := cells - 1; left > 0; left -= min(left, binenc.MaxRun) {
					e.Uvarint(uint64(min(left, binenc.MaxRun)-1)<<1 | 1)
				}
			}
		}),
		"chain column total past 2^32-1": chains(func(s *markov.Snapshot) {
			// Rows cur and States+cur both end in state cur.
			s.Counts[0][0], s.Counts[s.States][0] = math.MaxUint32, math.MaxUint32
		}),
		"count-table class counts off their total": withPart(countsPart, func(e *binenc.Encoder, part []byte) {
			var s bayes.CountSnapshot
			d := binenc.NewDecoder(part)
			s.Decode(&d)
			if err := d.Finish(); err != nil {
				tb.Fatal(err)
			}
			s.Class[0]++
			s.Encode(e)
		}),
		"model class counts off their total": model(func(s *bayes.Snapshot) { s.ClassCount[0]++ }),
	}
	for _, v := range []float64{math.NaN(), 0, 1.5} {
		bodies[fmt.Sprintf("cpt cell %v", v)] = model(func(s *bayes.Snapshot) { s.CPT[0][0][0][0] = v })
	}
	return bodies
}

// TestRestoreRejectsHostileCounts: a checkpoint whose model counts or
// probabilities no training produces is refused, and leaves nothing
// behind.
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

// TestRestoreRejectsEveryPrefix: every strict prefix of a real
// checkpoint is refused and leaves nothing, and so is the checkpoint
// with every strict prefix of a tan payload in that payload's place
// (every eighth prefix, and each one ending at a section boundary).
func TestRestoreRejectsEveryPrefix(t *testing.T) {
	ckpt := trainedCheckpoint(t, hostileRetrainS)
	cfgs, _ := failoverTopology(0)
	s, err := New(cfgs, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(ckpt); n++ {
		if !rejectedLeavingNothing(t, s, ckpt[:n]) {
			t.Fatalf("restore accepted the checkpoint's first %d of %d bytes", n, len(ckpt))
		}
	}

	c := parseCheckpoint(t, ckpt)
	payload := c.tenants[0].vms[0].payload
	head, parts := payloadParts(t, payload)
	cuts := map[int]bool{len(head): true}
	end := len(head)
	for _, p := range parts {
		end += 4 + len(p)
		cuts[end] = true
	}
	for n := 0; n < len(payload); n += 8 {
		cuts[n] = true
	}
	delete(cuts, len(payload))
	for n := range cuts {
		c.tenants[0].vms[0].payload = payload[:n]
		if !rejectedLeavingNothing(t, s, c.bytes(t)) {
			t.Fatalf("restore accepted the tan payload's first %d of %d bytes", n, len(payload))
		}
	}
}

// FuzzCheckpointRestore: Restore on a fresh server never panics, and a
// checkpoint it rejects leaves nothing behind — no tenant trained, no
// resume point moved. The seeds are a real checkpoint of a trained
// server, the bodies TestRestoreRejectsBadCheckpoints refuses and the
// hostile-count bodies TestRestoreRejectsHostileCounts refuses.
func FuzzCheckpointRestore(f *testing.F) {
	ckpt := trainedCheckpoint(f, 0)
	f.Add(ckpt)
	f.Add(ewmaCheckpoint(f))
	f.Add(parentCheckpoint(f))
	f.Add([]byte(`{}`))
	for _, bodies := range []map[string][]byte{
		badCheckpointBodies(f, ckpt),
		hostileCountBodies(f, trainedCheckpoint(f, hostileRetrainS)),
	} {
		names := make([]string, 0, len(bodies))
		for name := range bodies {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f.Add(bodies[name])
		}
	}

	replicaCfgs, _ := failoverTopology(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		restoreLeavesNothing(t, replicaCfgs, body)
	})
}
