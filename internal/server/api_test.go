package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prepare/internal/metrics"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// newAPIServer builds a small running server plus an httptest frontend.
func newAPIServer(t *testing.T, cfg Config) (*Server, *httptest.Server, map[substrate.VMID][]metrics.Sample) {
	t.Helper()
	traces := tenantTraces("api", 2, 11)
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(telemetry.Options{})
	}
	srv, err := New([]TenantConfig{{
		ID:      "api",
		VMs:     sortedVMs(traces),
		Control: testControlConfig(11, testTrainAt),
	}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, traces
}

func ingestBody(tenant string, samples ...SampleIn) string {
	b, _ := json.Marshal(ingestRequest{Batches: []Batch{{Tenant: tenant, Samples: samples}}})
	return string(b)
}

func validSample(vm substrate.VMID, timeS int64) SampleIn {
	vals := make([]float64, metrics.NumAttributes)
	for i := range vals {
		vals[i] = float64(i)
	}
	return SampleIn{VM: string(vm), TimeS: timeS, Label: "normal", Values: vals}
}

func TestIngestHandlerValidation(t *testing.T) {
	srv, ts, traces := newAPIServer(t, Config{})
	vms := sortedVMs(traces)
	ok := validSample(vms[0], 0)
	ghostVM := SampleIn{VM: "api-vm99", TimeS: 5, Values: ok.Values}
	// Validation is all-or-nothing across batches: a valid batch ahead
	// of an invalid one must not be enqueued.
	validThenBad, _ := json.Marshal(ingestRequest{Batches: []Batch{
		{Tenant: "api", Samples: []SampleIn{validSample(vms[1], 0)}},
		{Tenant: "api", Samples: []SampleIn{ghostVM}},
	}})

	short := ok
	short.Values = ok.Values[:3]
	badLabel := ok
	badLabel.Label = "on-fire"
	negative := ok
	negative.TimeS = -4

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"valid", ingestBody("api", ok), http.StatusOK},
		{"malformed JSON", `{"batches": [`, http.StatusBadRequest},
		{"unknown field", `{"batches": [], "extra": 1}`, http.StatusBadRequest},
		{"no batches", `{"batches": []}`, http.StatusBadRequest},
		{"empty batch", `{"batches": [{"tenant": "api", "samples": []}]}`, http.StatusBadRequest},
		{"unknown tenant", ingestBody("ghost", ok), http.StatusNotFound},
		{"unknown VM", ingestBody("api", ghostVM), http.StatusBadRequest},
		{"valid batch then unknown VM", string(validThenBad), http.StatusBadRequest},
		{"short vector", ingestBody("api", short), http.StatusBadRequest},
		{"bad label", ingestBody("api", badLabel), http.StatusBadRequest},
		{"negative time", ingestBody("api", negative), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			accepted := srv.Stats().SamplesAccepted
			resp, err := http.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if got := srv.Stats().SamplesAccepted; tc.status != http.StatusOK && got != accepted {
				t.Fatalf("rejected request accepted %d samples", got-accepted)
			}
		})
	}
}

func TestIngestHandlerOversizedBatch(t *testing.T) {
	_, ts, traces := newAPIServer(t, Config{MaxBatchSamples: 8})
	vms := sortedVMs(traces)
	var samples []SampleIn
	for i := int64(0); i < 9; i++ {
		samples = append(samples, validSample(vms[0], i*5))
	}
	resp, err := http.Post(ts.URL+"/v1/samples", "application/json", strings.NewReader(ingestBody("api", samples...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestIngestHandlerBackpressure pauses the shard worker behind a
// barrier, fills the bounded queue, and checks that the next request is
// rejected with 429 + Retry-After instead of buffering.
func TestIngestHandlerBackpressure(t *testing.T) {
	srv, ts, traces := newAPIServer(t, Config{QueueDepth: 4, RetryAfterS: 3})
	vms := sortedVMs(traces)

	ack := make(chan struct{}, 1)
	gate := make(chan struct{})
	srv.shards[0].queue <- item{kind: itemBarrier, ack: ack, gate: gate}
	<-ack // worker parked; nothing drains until the gate opens

	for i := int64(0); i < 4; i++ {
		res, err := srv.Ingest([]Batch{{Tenant: "api", Samples: []SampleIn{validSample(vms[0], i*5)}}})
		if err != nil {
			t.Fatalf("fill %d: %v (%+v)", i, err, res)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/samples", "application/json",
		strings.NewReader(ingestBody("api", validSample(vms[0], 100))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Accepted != 0 {
		t.Errorf("result = %+v, want 1 rejected", res)
	}
	close(gate)

	st := srv.Stats()
	if st.SamplesRejected == 0 || st.BatchesRejected == 0 {
		t.Errorf("backpressure not counted: %+v", st)
	}
}

func TestCursorEndpoints(t *testing.T) {
	_, ts, _ := newAPIServer(t, Config{})
	for _, path := range []string{"/v1/alerts", "/v1/audit"} {
		resp, err := http.Get(ts.URL + path + "?since=nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s bad since: status = %d, want 400", path, resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + path + "?limit=-2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s bad limit: status = %d, want 400", path, resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Alerts  []Alert      `json:"alerts"`
			Actions []AuditEntry `json:"actions"`
			Next    uint64       `json:"next"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || out.Next != 0 {
			t.Errorf("%s empty read: status=%d next=%d", path, resp.StatusCode, out.Next)
		}
	}
}

// TestAlertsCursorPagination drives a tenant far enough to alert, then
// walks the stream with small pages and checks the cursors compose.
func TestAlertsCursorPagination(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon run outside -short")
	}
	srv, ts, traces := newAPIServer(t, Config{})
	feed(t, srv, map[string]map[substrate.VMID][]metrics.Sample{"api": traces}, 0, testHorizon)

	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().AlertsPublished == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no alerts published")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Quiesce so the paged walk sees a stable stream.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.SamplesApplied+st.AppendErrors >= st.SamplesAccepted && allZero(st.QueueDepths) {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("pipeline did not drain: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // publisher drain

	var all []Alert
	cursor := uint64(0)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/alerts?since=%d&limit=2", ts.URL, cursor))
		if err != nil {
			t.Fatal(err)
		}
		var page alertsResponse
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if page.Truncated {
			t.Fatal("unexpected truncation")
		}
		if len(page.Alerts) == 0 {
			break
		}
		if len(page.Alerts) > 2 {
			t.Fatalf("page of %d exceeds limit 2", len(page.Alerts))
		}
		all = append(all, page.Alerts...)
		cursor = page.Next
	}
	direct := drainAlerts(srv)
	if len(all) != len(direct) {
		t.Fatalf("paged walk returned %d alerts, log holds %d", len(all), len(direct))
	}
	for i := range all {
		if all[i] != direct[i] {
			t.Fatalf("page item %d = %+v, want %+v", i, all[i], direct[i])
		}
	}
}

func allZero(depths []int) bool {
	for _, d := range depths {
		if d != 0 {
			return false
		}
	}
	return true
}

func TestHealthAndReadiness(t *testing.T) {
	srv, ts, _ := newAPIServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed /readyz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/samples", "application/json",
		strings.NewReader(`{"batches":[{"tenant":"api","samples":[]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("closed ingest of bad batch = %d, want 400 (validation first)", resp.StatusCode)
	}
}

func TestModelAndCheckpointEndpoints(t *testing.T) {
	_, ts, _ := newAPIServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/tenants/ghost/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant model = %d, want 404", resp.StatusCode)
	}
	// Untrained: the controller cannot snapshot yet.
	resp, err = http.Get(ts.URL + "/v1/tenants/api/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("untrained model = %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("untrained checkpoint = %d, want 409", resp.StatusCode)
	}
}

func TestStatsAndMetricsEndpoints(t *testing.T) {
	srv, ts, traces := newAPIServer(t, Config{})
	vms := sortedVMs(traces)
	if _, err := srv.Ingest([]Batch{{Tenant: "api", Samples: []SampleIn{validSample(vms[0], 0)}}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Tenants != 1 || st.SamplesAccepted != 1 {
		t.Errorf("stats = %+v", st)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "prepare_server_ingest_samples_accepted") {
		t.Errorf("/metrics = %d: %.200s", resp.StatusCode, body)
	}
}

// TestCheckpointEndpointServesBinary: GET /v1/checkpoint answers with
// the binary checkpoint media type and the bytes LastCheckpoint then
// holds, which a replica restores; a later checkpoint, requested or
// periodic, leaves the bytes LastCheckpoint returned earlier unchanged.
// The pause histogram and the size gauge record every checkpoint and
// are served on /metrics.
func TestCheckpointEndpointServesBinary(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	srv, ts, traces := newAPIServer(t, Config{Telemetry: reg, CheckpointInterval: time.Millisecond})
	byTenant := map[string]map[substrate.VMID][]metrics.Sample{"api": traces}
	feed(t, srv, byTenant, 0, testTrainAt+5)
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/checkpoint = %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-prepare-checkpoint" {
			t.Fatalf("checkpoint Content-Type %q, want application/x-prepare-checkpoint", ct)
		}
		return body
	}
	body := get()
	held := srv.LastCheckpoint()
	want := append([]byte(nil), held...)
	feed(t, srv, byTenant, testTrainAt+10, testTrainAt+100)
	later := get()
	if bytes.Equal(later, body) {
		t.Fatal("the later checkpoint equals the first; the scenario cannot tell them apart")
	}
	// Let the periodic checkpointer take a few more.
	for start := srv.Stats().Checkpoints; srv.Stats().Checkpoints < start+3; {
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(held, want) {
		t.Fatal("a later checkpoint changed the bytes LastCheckpoint returned")
	}

	replica, err := New([]TenantConfig{{ID: "api", VMs: sortedVMs(traces), Control: testControlConfig(11, 0)}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Restore(bytes.NewReader(later)); err != nil {
		t.Fatalf("restore the served checkpoint: %v", err)
	}

	snap := reg.Snapshot()
	if h := snap.Histograms["server.checkpoint.pause_ms"]; h.Count < 2 {
		t.Errorf("pause histogram holds %d checkpoints, at least 2 were taken", h.Count)
	}
	if g := snap.Gauges["server.checkpoint.bytes"]; g.Max < float64(len(body)) {
		t.Errorf("checkpoint size gauge max %v, a checkpoint was %d bytes", g.Max, len(body))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"prepare_server_checkpoint_pause_ms", "prepare_server_checkpoint_bytes"} {
		if !strings.Contains(string(metricsBody), name) {
			t.Errorf("/metrics does not serve %s", name)
		}
	}
}
