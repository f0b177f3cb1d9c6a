package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"prepare/internal/chaos"
	"prepare/internal/control"
	"prepare/internal/metrics"
	"prepare/internal/prevent"
	"prepare/internal/replay"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

const (
	testHorizon = 1500
	testTrainAt = 600
)

var testEpisodes = [][2]int64{{200, 500}, {900, 1200}}

func vmName(tenant string, i int) substrate.VMID {
	return substrate.VMID(fmt.Sprintf("%s-vm%d", tenant, i))
}

// tenantTraces builds deterministic per-VM labeled traces for one
// tenant.
func tenantTraces(tenant string, vms int, seed int64) map[substrate.VMID][]metrics.Sample {
	out := make(map[substrate.VMID][]metrics.Sample, vms)
	for i := 0; i < vms; i++ {
		out[vmName(tenant, i)] = replay.SyntheticTrace(seed+int64(i)*101, testHorizon, testEpisodes)
	}
	return out
}

func testControlConfig(seed, trainAtS int64) control.Config {
	return control.Config{TrainAtS: trainAtS, MonitorNoiseStd: -1, MonitorSeed: seed}
}

// syncRun is the synchronous oracle: the same traces through a plain
// single-threaded controller over an appendable substrate, fed and
// pre-advanced exactly like the server's shard workers — the pipeline
// must add nothing and lose nothing relative to this straight-line
// loop.
func syncRun(t *testing.T, traces map[substrate.VMID][]metrics.Sample, plan chaos.Plan, cfg control.Config, until int64) ([]control.AlertEvent, []prevent.Step) {
	t.Helper()
	vms := sortedVMs(traces)
	sub, err := replay.NewAppendable(vms, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	app, err := replay.NewApp(sub)
	if err != nil {
		t.Fatal(err)
	}
	var loop substrate.Substrate = sub
	if plan.Enabled() {
		if loop, err = chaos.New(sub, plan); err != nil {
			t.Fatal(err)
		}
	}
	cfg.MonitorNoiseStd = -1
	ctl, err := control.New(control.SchemePREPARE, loop, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(0)
	for tm := int64(0); tm <= until; tm += 5 {
		for _, vm := range vms {
			for _, sm := range traces[vm] {
				if sm.Time.Seconds() == tm {
					if err := sub.Append(vm, sm); err != nil {
						t.Fatalf("oracle append t=%d: %v", tm, err)
					}
				}
			}
		}
		for s := last + 1; s <= tm; s++ {
			sub.Advance(simclock.Time(s))
			if err := ctl.OnTick(simclock.Time(s)); err != nil {
				t.Fatalf("oracle tick %d: %v", s, err)
			}
		}
		last = tm
	}
	return ctl.Alerts(), ctl.Steps()
}

// feed pushes every grid sample in [from, to] into the server through
// Ingest, one batch per tenant per sampling instant, retrying batches
// rejected by backpressure so nothing is lost.
func feed(t testing.TB, s *Server, traces map[string]map[substrate.VMID][]metrics.Sample, from, to int64) int {
	t.Helper()
	return feedVia(t, traces, from, to, func(b Batch) error {
		_, err := s.Ingest([]Batch{b})
		return err
	})
}

// feedVia is feed over any transport: send delivers one tenant batch
// and is retried while it reports backpressure.
func feedVia(t testing.TB, traces map[string]map[substrate.VMID][]metrics.Sample, from, to int64, send func(Batch) error) int {
	t.Helper()
	tenants := make([]string, 0, len(traces))
	for id := range traces {
		tenants = append(tenants, id)
	}
	sort.Strings(tenants)
	sent := 0
	for tm := from; tm <= to; tm += 5 {
		for _, id := range tenants {
			b := Batch{Tenant: id}
			for _, vm := range sortedVMs(traces[id]) {
				for _, sm := range traces[id][vm] {
					if sm.Time.Seconds() == tm {
						b.Samples = append(b.Samples, sampleIn(vm, sm))
					}
				}
			}
			if len(b.Samples) == 0 {
				continue
			}
			for {
				err := send(b)
				if err == nil {
					break
				}
				if errors.Is(err, ErrBackpressure) {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				t.Fatalf("ingest t=%d tenant=%s: %v", tm, id, err)
			}
			sent += len(b.Samples)
		}
	}
	return sent
}

func sortedVMs(traces map[substrate.VMID][]metrics.Sample) []substrate.VMID {
	out := make([]substrate.VMID, 0, len(traces))
	for id := range traces {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sampleIn(vm substrate.VMID, sm metrics.Sample) SampleIn {
	label := "normal"
	switch sm.Label {
	case metrics.LabelAbnormal:
		label = "abnormal"
	case metrics.LabelUnknown:
		label = "unknown"
	}
	return SampleIn{VM: string(vm), TimeS: sm.Time.Seconds(), Label: label, Values: sm.Values[:]}
}

// drainAlerts reads the whole published alert log.
func drainAlerts(s *Server) []Alert {
	items, _, _, _ := s.alerts.since(0, 0)
	return items
}

func drainAudit(s *Server) []AuditEntry {
	items, _, _, _ := s.audit.since(0, 0)
	return items
}

// canonical sorts a published stream by (Time, Tenant), stable, and
// clears sequence numbers — the engine's canonical aggregate order.
func canonicalAlerts(in []Alert) []Alert {
	out := append([]Alert(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Tenant < out[j].Tenant
	})
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

func canonicalAudit(in []AuditEntry) []AuditEntry {
	out := append([]AuditEntry(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Tenant < out[j].Tenant
	})
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

// oracleAlerts converts per-tenant sync-run output into the canonical
// merged stream.
func oracleAlerts(byTenant map[string][]control.AlertEvent) []Alert {
	var out []Alert
	tenants := make([]string, 0, len(byTenant))
	for id := range byTenant {
		tenants = append(tenants, id)
	}
	sort.Strings(tenants)
	for _, id := range tenants {
		for _, a := range byTenant[id] {
			out = append(out, Alert{Tenant: id, Time: a.Time, VM: a.VM, Score: a.Score, Predicted: a.Predicted})
		}
	}
	return canonicalAlerts(out)
}

func oracleAudit(byTenant map[string][]prevent.Step) []AuditEntry {
	var out []AuditEntry
	tenants := make([]string, 0, len(byTenant))
	for id := range byTenant {
		tenants = append(tenants, id)
	}
	sort.Strings(tenants)
	for _, id := range tenants {
		for _, st := range byTenant[id] {
			out = append(out, AuditEntry{Tenant: id, Time: st.Time, VM: st.VM, Kind: st.Kind, Resource: st.Resource, Detail: st.Detail})
		}
	}
	return canonicalAudit(out)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerMatchesSyncEngine: the asynchronous pipeline must produce a
// byte-identical alert stream and actuation audit log to the
// synchronous engine fed the same traces.
func TestServerMatchesSyncEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon equivalence runs outside -short")
	}
	serverVsSync(t, chaosForTenant(nil))
}

// TestServerMatchesSyncEngineWithChaos: same equivalence with
// deterministic fault injection between ingest and the control loops.
func TestServerMatchesSyncEngineWithChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon equivalence runs outside -short")
	}
	serverVsSync(t, chaosForTenant(func(seed int64) chaos.Plan {
		return chaos.Uniform(seed, 0.03)
	}))
}

func chaosForTenant(f func(seed int64) chaos.Plan) func(seed int64) chaos.Plan {
	if f == nil {
		return func(int64) chaos.Plan { return chaos.Plan{} }
	}
	return f
}

func serverVsSync(t *testing.T, planFor func(seed int64) chaos.Plan) {
	t.Helper()
	tenants := []string{"alpha", "beta", "gamma"}
	traces := make(map[string]map[substrate.VMID][]metrics.Sample, len(tenants))
	cfgs := make([]TenantConfig, 0, len(tenants))
	for i, id := range tenants {
		seed := int64(100 + i*17)
		traces[id] = tenantTraces(id, 2, seed)
		cfgs = append(cfgs, TenantConfig{
			ID:      id,
			VMs:     sortedVMs(traces[id]),
			Control: testControlConfig(seed, testTrainAt),
			Chaos:   planFor(seed),
		})
	}
	reg := telemetry.New(telemetry.Options{})
	srv, err := New(cfgs, Config{Shards: 2, QueueDepth: 16, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	sent := feed(t, srv, traces, 0, testHorizon)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Failure(); err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}

	st := srv.Stats()
	if st.SamplesApplied != int64(sent) {
		t.Errorf("samples lost: sent %d, applied %d", sent, st.SamplesApplied)
	}
	if st.AppendErrors != 0 {
		t.Errorf("append errors: %d", st.AppendErrors)
	}

	wantAlerts := make(map[string][]control.AlertEvent, len(tenants))
	wantSteps := make(map[string][]prevent.Step, len(tenants))
	for i, id := range tenants {
		seed := int64(100 + i*17)
		a, s := syncRun(t, traces[id], planFor(seed), testControlConfig(seed, testTrainAt), testHorizon)
		wantAlerts[id], wantSteps[id] = a, s
	}

	gotAlerts := canonicalAlerts(drainAlerts(srv))
	expAlerts := oracleAlerts(wantAlerts)
	if len(expAlerts) == 0 {
		t.Fatal("oracle produced no alerts; the scenario is too quiet to prove equivalence")
	}
	if !reflect.DeepEqual(mustJSON(t, gotAlerts), mustJSON(t, expAlerts)) {
		t.Errorf("alert streams differ:\n got %s\nwant %s", mustJSON(t, gotAlerts), mustJSON(t, expAlerts))
	}
	gotAudit := canonicalAudit(drainAudit(srv))
	expAudit := oracleAudit(wantSteps)
	if !reflect.DeepEqual(mustJSON(t, gotAudit), mustJSON(t, expAudit)) {
		t.Errorf("audit streams differ:\n got %s\nwant %s", mustJSON(t, gotAudit), mustJSON(t, expAudit))
	}
	if int64(len(gotAlerts)) != st.AlertsPublished {
		t.Errorf("published %d alerts but log holds %d", st.AlertsPublished, len(gotAlerts))
	}
}

// TestServerWatermarkGating: the control loops may only tick through
// instants every VM has reported; a lagging VM holds its whole shard.
func TestServerWatermarkGating(t *testing.T) {
	traces := map[string]map[substrate.VMID][]metrics.Sample{
		"solo": tenantTraces("solo", 2, 7),
	}
	srv, err := New([]TenantConfig{{
		ID:      "solo",
		VMs:     sortedVMs(traces["solo"]),
		Control: testControlConfig(7, testTrainAt),
	}}, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	vms := sortedVMs(traces["solo"])
	send := func(vm substrate.VMID, from, upto int64) int {
		n := 0
		for _, sm := range traces["solo"][vm] {
			if sm.Time.Seconds() < from || sm.Time.Seconds() > upto {
				continue
			}
			if _, err := srv.Ingest([]Batch{{Tenant: "solo", Samples: []SampleIn{sampleIn(vm, sm)}}}); err != nil {
				t.Fatalf("ingest: %v", err)
			}
			n++
		}
		return n
	}
	sent := send(vms[0], 0, 100)
	sent += send(vms[1], 0, 50)

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SamplesApplied < int64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not drain: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().Ticks; got != 50 {
		t.Errorf("ticks = %d, want 50 (watermark is the slowest VM's last sample)", got)
	}

	// The lagging VM catches up: the shard advances to the new minimum.
	sent += send(vms[1], 55, 100)
	for srv.Stats().SamplesApplied < int64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not drain: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().Ticks; got != 100 {
		t.Errorf("ticks = %d, want 100 after catch-up", got)
	}
}

// TestEventLogRing: sequence numbers survive ring eviction and cursor
// reads report the truncation.
func TestEventLogRing(t *testing.T) {
	l := newEventLog[int](4)
	for i := 0; i < 10; i++ {
		seq := l.append(func(seq uint64) int { return int(seq) })
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	if l.retained() != 4 {
		t.Fatalf("retained %d, want 4", l.retained())
	}
	items, next, first, truncated := l.since(0, 0)
	if !truncated {
		t.Error("eviction past the cursor must report truncation")
	}
	if first != 7 || next != 10 {
		t.Errorf("first=%d next=%d, want 7/10", first, next)
	}
	if !reflect.DeepEqual(items, []int{7, 8, 9, 10}) {
		t.Errorf("items = %v", items)
	}
	items, next, _, truncated = l.since(8, 1)
	if truncated || len(items) != 1 || items[0] != 9 || next != 9 {
		t.Errorf("cursor read: items=%v next=%d truncated=%v", items, next, truncated)
	}
	items, next, _, _ = l.since(10, 0)
	if len(items) != 0 || next != 10 {
		t.Errorf("caught-up read: items=%v next=%d", items, next)
	}
	// A cursor past the newest record must not wrap cursor+1 to 0.
	items, next, _, truncated = l.since(math.MaxUint64, 0)
	if len(items) != 0 || next != math.MaxUint64 || truncated {
		t.Errorf("max-cursor read: items=%v next=%d truncated=%v", items, next, truncated)
	}
}

// TestEventLogRingMatchesSliceModel fills a log to capacity, then
// appends three capacities more while a reader pages through it with
// since, and requires every read to return what a plain slice of all
// records ever appended says it should: same items, next, first and
// truncated. The reader's page size and pace vary so it is sometimes
// caught up, sometimes lapped by the ring.
func TestEventLogRingMatchesSliceModel(t *testing.T) {
	const size = 64
	l := newEventLog[uint64](size)
	var all []uint64 // all[i] has sequence i+1
	check := func(cursor uint64, limit int) uint64 {
		t.Helper()
		items, next, first, truncated := l.since(cursor, limit)
		wantFirst := uint64(1)
		if len(all) > size {
			wantFirst = uint64(len(all) - size + 1)
		}
		start := max(cursor+1, wantFirst)
		var want []uint64
		if start <= uint64(len(all)) {
			want = all[start-1:]
		}
		if limit > 0 && len(want) > limit {
			want = want[:limit]
		}
		wantNext := cursor
		if len(want) > 0 {
			wantNext = want[len(want)-1]
		}
		if !reflect.DeepEqual(items, append([]uint64(nil), want...)) ||
			next != wantNext || first != wantFirst || truncated != (cursor+1 < wantFirst) {
			t.Fatalf("after %d appends since(%d, %d) = items %v next %d first %d truncated %v; model: items %v next %d first %d truncated %v",
				len(all), cursor, limit, items, next, first, truncated, want, wantNext, wantFirst, cursor+1 < wantFirst)
		}
		return next
	}
	rng := rand.New(rand.NewSource(9))
	cursor := uint64(0)
	for i := 0; i < 4*size; i++ {
		seq := l.append(func(seq uint64) uint64 { return seq })
		all = append(all, seq)
		if rng.Intn(3) == 0 || i%size == size-1 {
			cursor = check(cursor, 1+rng.Intn(size/2))
		}
		if rng.Intn(40) == 0 {
			check(0, 0) // a reader starting over: everything retained
		}
	}
	check(cursor, 0)
	if l.retained() != size {
		t.Fatalf("retained %d, want %d", l.retained(), size)
	}
}

// BenchmarkEventLogAppendFull appends to a log already at capacity: the
// cost must not grow with the capacity.
func BenchmarkEventLogAppendFull(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			l := newEventLog[Alert](size)
			record := func(seq uint64) Alert { return Alert{Seq: seq} }
			for i := 0; i < size; i++ {
				l.append(record)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.append(record)
			}
		})
	}
}
