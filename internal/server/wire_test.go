package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"prepare/internal/chaos"
	"prepare/internal/control"
	"prepare/internal/metrics"
	"prepare/internal/prevent"
	"prepare/internal/substrate"
	"prepare/internal/wire"
)

// frameForInstant encodes one tenant's grid samples at instant tm as a
// single binary columnar frame (nil when the instant has none).
func frameForInstant(t *testing.T, tenant string, traces map[substrate.VMID][]metrics.Sample, tm int64) []byte {
	t.Helper()
	var b wire.Batch
	b.Reset([]byte(tenant))
	idx := make(map[substrate.VMID]int)
	for _, vm := range sortedVMs(traces) {
		for _, sm := range traces[vm] {
			if sm.Time.Seconds() != tm {
				continue
			}
			i, ok := idx[vm]
			if !ok {
				i = b.AddVM([]byte(vm))
				idx[vm] = i
			}
			b.Add(i, sm.Time.Seconds(), sm.Label, sm.Values[:])
		}
	}
	if b.Rows() == 0 {
		return nil
	}
	frame, err := wire.AppendBatch(nil, &b)
	if err != nil {
		t.Fatalf("encode tenant %s t=%d: %v", tenant, tm, err)
	}
	return frame
}

// feedBinary is feed's binary twin: one frame per tenant per sampling
// instant through IngestFrame, retrying on backpressure.
func feedBinary(t *testing.T, s *Server, traces map[string]map[substrate.VMID][]metrics.Sample, from, to int64) int {
	t.Helper()
	tenants := make([]string, 0, len(traces))
	for id := range traces {
		tenants = append(tenants, id)
	}
	sort.Strings(tenants)
	sent := 0
	for tm := from; tm <= to; tm += 5 {
		for _, id := range tenants {
			frame := frameForInstant(t, id, traces[id], tm)
			if frame == nil {
				continue
			}
			for {
				res, err := s.IngestFrame(frame)
				if err == nil {
					sent += res.Accepted
					break
				}
				if errors.Is(err, ErrBackpressure) {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				t.Fatalf("binary ingest t=%d tenant=%s: %v", tm, id, err)
			}
		}
	}
	return sent
}

// transportScenario is the chaotic three-tenant run every transport
// test replays: the traces, a fresh started server for them, and the
// synchronous oracle's canonical alert and audit streams.
type transportScenario struct {
	tenants               []string
	traces                map[string]map[substrate.VMID][]metrics.Sample
	wantAlerts, wantAudit []byte
	newSrv                func() *Server
}

func newTransportScenario(t *testing.T) *transportScenario {
	t.Helper()
	tenants := []string{"alpha", "beta", "gamma"}
	seedOf := func(i int) int64 { return int64(100 + i*17) }
	traces := make(map[string]map[substrate.VMID][]metrics.Sample, len(tenants))
	oracleA := make(map[string][]control.AlertEvent, len(tenants))
	oracleS := make(map[string][]prevent.Step, len(tenants))
	for i, id := range tenants {
		traces[id] = tenantTraces(id, 2, seedOf(i))
		oracleA[id], oracleS[id] = syncRun(t, traces[id], chaos.Uniform(seedOf(i), 0.03),
			testControlConfig(seedOf(i), testTrainAt), testHorizon)
	}
	expAlerts := oracleAlerts(oracleA)
	if len(expAlerts) == 0 {
		t.Fatal("oracle produced no alerts; the scenario is too quiet to prove equivalence")
	}
	return &transportScenario{
		tenants:    tenants,
		traces:     traces,
		wantAlerts: mustJSON(t, expAlerts),
		wantAudit:  mustJSON(t, oracleAudit(oracleS)),
		newSrv: func() *Server {
			cfgs := make([]TenantConfig, 0, len(tenants))
			for i, id := range tenants {
				cfgs = append(cfgs, TenantConfig{
					ID:      id,
					VMs:     sortedVMs(traces[id]),
					Control: testControlConfig(seedOf(i), testTrainAt),
					Chaos:   chaos.Uniform(seedOf(i), 0.03),
				})
			}
			srv, err := New(cfgs, Config{Shards: 2, QueueDepth: 2048})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			return srv
		},
	}
}

// check requires a closed server's alert and audit streams to be
// byte-identical to the synchronous oracle's.
func (sc *transportScenario) check(t *testing.T, name string, srv *Server) {
	t.Helper()
	if err := srv.Failure(); err != nil {
		t.Fatalf("%s: pipeline failed: %v", name, err)
	}
	if got := mustJSON(t, canonicalAlerts(drainAlerts(srv))); !bytes.Equal(got, sc.wantAlerts) {
		t.Errorf("%s alert stream diverges from the synchronous oracle (%d vs %d bytes)", name, len(got), len(sc.wantAlerts))
	}
	if got := mustJSON(t, canonicalAudit(drainAudit(srv))); !bytes.Equal(got, sc.wantAudit) {
		t.Errorf("%s audit stream diverges from the synchronous oracle (%d vs %d bytes)", name, len(got), len(sc.wantAudit))
	}
}

// TestServerBinaryMatchesJSON is the transport-equivalence pin: the
// same chaotic traces ingested as Go batches through Ingest, as
// per-request binary frames, and as one long-lived binary stream must
// publish alert and audit streams byte-identical to the synchronous
// oracle's, so the transports agree on the right answer. Any decode
// bug, ordering change, or frame loss diverges the streams.
func TestServerBinaryMatchesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon equivalence runs outside -short")
	}
	sc := newTransportScenario(t)

	srvIngest := sc.newSrv()
	feed(t, srvIngest, sc.traces, 0, testHorizon)
	if err := srvIngest.Close(); err != nil {
		t.Fatal(err)
	}

	srvBin := sc.newSrv()
	feedBinary(t, srvBin, sc.traces, 0, testHorizon)
	if err := srvBin.Close(); err != nil {
		t.Fatal(err)
	}

	// Stream: every frame of the whole run on one connection. The queue
	// depth exceeds the frame count, so zero rejections is deterministic.
	var streamBody []byte
	for tm := int64(0); tm <= testHorizon; tm += 5 {
		for _, id := range sc.tenants {
			if frame := frameForInstant(t, id, sc.traces[id], tm); frame != nil {
				streamBody = append(streamBody, frame...)
			}
		}
	}
	srvStream := sc.newSrv()
	res, err := srvStream.IngestStream(bytes.NewReader(streamBody))
	if err != nil {
		t.Fatalf("stream ingest: %v", err)
	}
	if res.Rejected != 0 {
		t.Fatalf("stream rejected %d samples (queue sized to avoid backpressure)", res.Rejected)
	}
	if err := srvStream.Close(); err != nil {
		t.Fatal(err)
	}

	sc.check(t, "Ingest", srvIngest)
	sc.check(t, "binary", srvBin)
	sc.check(t, "stream", srvStream)
	if srvIngest.Stats().BinaryFrames != 0 || srvBin.Stats().BinaryFrames == 0 {
		t.Errorf("frame counters: ingest=%d binary=%d", srvIngest.Stats().BinaryFrames, srvBin.Stats().BinaryFrames)
	}
}

// TestWireTransportsEquivalent runs the transport scenario through
// IngestJSON, the HTTP handler's JSON decode: each batch marshalled as
// {"batches":[…]} and retried on backpressure. Its alert and audit
// streams must be byte-identical to the synchronous oracle's, and so to
// every leg of TestServerBinaryMatchesJSON.
func TestWireTransportsEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon equivalence runs outside -short")
	}
	sc := newTransportScenario(t)
	srv := sc.newSrv()
	feedVia(t, sc.traces, 0, testHorizon, func(b Batch) error {
		body, err := json.Marshal(ingestRequest{Batches: []Batch{b}})
		if err != nil {
			return err
		}
		_, err = srv.IngestJSON(body)
		return err
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sc.check(t, "IngestJSON", srv)
	if n := srv.Stats().BinaryFrames; n != 0 {
		t.Errorf("IngestJSON counted %d binary frames", n)
	}
}

// binFrame builds a small valid frame for the api tenant.
func binFrame(t testing.TB, tenant string, vm substrate.VMID, times ...int64) []byte {
	t.Helper()
	var b wire.Batch
	b.Reset([]byte(tenant))
	i := b.AddVM([]byte(vm))
	vals := make([]float64, metrics.NumAttributes)
	for a := range vals {
		vals[a] = float64(a)
	}
	for _, tm := range times {
		b.Add(i, tm, metrics.LabelNormal, vals)
	}
	frame, err := wire.AppendBatch(nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func postBinary(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBinaryIngestHandlerErrors covers the binary error paths end to
// end: malformed frame → 400, oversized body → 413, unknown tenant →
// 404, row count over MaxBatchSamples → 413, and a valid frame → 200.
func TestBinaryIngestHandlerErrors(t *testing.T) {
	_, ts, traces := newAPIServer(t, Config{MaxBodyBytes: 4096, MaxBatchSamples: 8})
	vms := sortedVMs(traces)
	url := ts.URL + "/v1/samples"

	valid := binFrame(t, "api", vms[0], 0)

	t.Run("valid frame", func(t *testing.T) {
		resp := postBinary(t, url, valid)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, body)
		}
	})
	t.Run("malformed frame", func(t *testing.T) {
		for _, body := range [][]byte{
			[]byte("not a frame"),
			valid[:len(valid)-3],                       // truncated body
			append(append([]byte(nil), valid...), 'x'), // trailing garbage
		} {
			resp := postBinary(t, url, body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		}
	})
	t.Run("unknown tenant", func(t *testing.T) {
		resp := postBinary(t, url, binFrame(t, "ghost", vms[0], 5))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d, want 404", resp.StatusCode)
		}
	})
	t.Run("unknown VM", func(t *testing.T) {
		resp := postBinary(t, url, binFrame(t, "api", "api-vm99", 5))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("too many rows", func(t *testing.T) {
		times := make([]int64, 9)
		for i := range times {
			times[i] = int64(100 + i*5)
		}
		resp := postBinary(t, url, binFrame(t, "api", vms[0], times...))
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		resp := postBinary(t, url, make([]byte, 8192)) // > MaxBodyBytes
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("oversized JSON body", func(t *testing.T) {
		big := `{"batches": [{"tenant": "api", "samples": [` + strings.Repeat(" ", 8192) + `]}]}`
		resp, err := http.Post(url, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
}

// TestStreamHandler drives the persistent endpoint: two frames on one
// connection apply in order, a wrong content type is refused, and a
// stream cut mid-frame still applies every complete prior frame while
// leaving the pipeline consistent.
func TestStreamHandler(t *testing.T) {
	srv, ts, traces := newAPIServer(t, Config{})
	vms := sortedVMs(traces)
	f0 := binFrame(t, "api", vms[0], 0)
	f1 := binFrame(t, "api", vms[0], 5)

	t.Run("two frames", func(t *testing.T) {
		resp := func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/stream", wire.ContentType, bytes.NewReader(append(append([]byte(nil), f0...), f1...)))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, body)
		}
		var res StreamResult
		if err := jsonDecode(resp.Body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Frames != 2 || res.Accepted != 2 || res.Rejected != 0 {
			t.Fatalf("stream result = %+v", res)
		}
	})
	t.Run("wrong content type", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("status = %d, want 415", resp.StatusCode)
		}
	})
	t.Run("mid-stream drop", func(t *testing.T) {
		f2 := binFrame(t, "api", vms[0], 10)
		f3 := binFrame(t, "api", vms[0], 15)
		cut := append(append([]byte(nil), f2...), f3[:len(f3)/2]...)
		res, err := srv.IngestStream(bytes.NewReader(cut))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
		if res.Frames != 1 || res.Accepted != 1 {
			t.Fatalf("result = %+v, want the one complete frame applied", res)
		}
		// The pipeline stays consistent: the complete frame drains, the
		// half frame leaves no trace, and later ingest still works.
		waitApplied(t, srv, 3) // t=0,5 from the first subtest + t=10 here
		if _, err := srv.IngestFrame(f3); err != nil {
			t.Fatalf("ingest after drop: %v", err)
		}
		waitApplied(t, srv, 4)
		if err := srv.Failure(); err != nil {
			t.Fatalf("pipeline failed: %v", err)
		}
	})
}

// waitApplied blocks until the server has applied at least n samples.
func waitApplied(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().SamplesApplied < n {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline stuck: %+v", srv.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// TestWriteJSONAllocs pins the pooled response encoder: a steady-state
// writeJSON must cost at most the header-set allocation, not a fresh
// encoder and buffer per response.
func TestWriteJSONAllocs(t *testing.T) {
	w := &nopResponseWriter{h: make(http.Header)}
	var v any = IngestResult{Accepted: 4096}
	writeJSON(w, http.StatusOK, v) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		writeJSON(w, http.StatusOK, v)
	})
	// http.Header.Set allocates its one-element value slice; everything
	// else (encoder, buffer) must come from the pool.
	if allocs > 2 {
		t.Fatalf("writeJSON allocs/op = %v, want <= 2", allocs)
	}
}

type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// TestBinaryIngestMatchesHTTP round-trips one frame through the real
// HTTP handler and checks the applied samples land, covering the
// content-negotiation path that in-process IngestFrame skips.
func TestBinaryIngestMatchesHTTP(t *testing.T) {
	srv, ts, traces := newAPIServer(t, Config{})
	vms := sortedVMs(traces)
	resp := postBinary(t, ts.URL+"/v1/samples", binFrame(t, "api", vms[0], 0, 5, 10))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	waitApplied(t, srv, 3)
	st := srv.Stats()
	if st.BinaryFrames != 1 || st.SamplesAccepted != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// serveBinary runs one POST /v1/samples of body through h in-process
// with the given Content-Length (-1: unknown) and returns the recorder.
func serveBinary(h http.Handler, body []byte, contentLength int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/samples", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// settle waits until the shard workers have applied (or dropped with an
// append error) every sample the server accepted.
func settle(t testing.TB, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.samplesApplied.Load()+srv.appendErrors.Load() != srv.samplesAccepted.Load() {
		if err := srv.Failure(); err != nil {
			t.Fatalf("pipeline failed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline stuck: %+v", srv.Stats())
		}
		runtime.Gosched()
	}
}

// TestBinaryIngestBodyBounds pins the binary POST body read: the body
// goes straight into a pooled decode state whose buffer a declared
// length sizes but never past MaxBodyBytes+1, an oversized body is 413
// whatever it declares, an unknown length still ingests, a short or
// mis-prefixed frame is 400, no rejection applies a sample, and a
// buffer a large frame grew decodes only a later small frame's bytes.
func TestBinaryIngestBodyBounds(t *testing.T) {
	const limit = 4096
	srv, _, traces := newAPIServer(t, Config{MaxBodyBytes: limit, MaxBatchSamples: 64})
	h := srv.Handler()
	vms := sortedVMs(traces)
	valid := binFrame(t, "api", vms[0], 0)
	oversized := append(binFrame(t, "api", vms[0], 5), make([]byte, limit)...)

	rejected := func(name string, rec *httptest.ResponseRecorder, status int, want error) {
		t.Helper()
		if rec.Code != status {
			t.Errorf("%s: status = %d, want %d (%s)", name, rec.Code, status, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), want.Error()) {
			t.Errorf("%s: body %q does not name %q", name, rec.Body, want)
		}
		if n := srv.samplesAccepted.Load(); n != 0 {
			t.Fatalf("%s: a rejected body accepted %d samples", name, n)
		}
	}
	for _, declared := range []int64{int64(len(oversized)), -1, 1 << 40} {
		rejected(fmt.Sprintf("oversized, Content-Length %d", declared),
			serveBinary(h, oversized, declared), http.StatusRequestEntityTooLarge, ErrBatchTooLarge)
	}
	misprefixed := func(delta uint32) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+delta)
		return b
	}
	for name, body := range map[string][]byte{
		"truncated mid-frame": valid[:len(valid)-3],
		"prefix too long":     misprefixed(1),
		"prefix too short":    misprefixed(^uint32(0)),
		"prefix only":         valid[:4],
		"empty":               nil,
	} {
		rejected(name, serveBinary(h, body, int64(len(body))), http.StatusBadRequest, ErrBadFrame)
		// The declared length promised the whole frame; the body ended early.
		rejected(name+", declared whole", serveBinary(h, body, int64(len(valid))), http.StatusBadRequest, ErrBadFrame)
	}

	// The read itself, on a fresh state: neither a hostile declared
	// length nor growth for an unknown one sizes past limit+1.
	for _, declared := range []int64{1 << 40, limit, -1} {
		for _, body := range [][]byte{oversized, make([]byte, limit), valid} {
			ds := new(decodeState)
			err := ds.readBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit), declared, limit)
			var tooLarge *http.MaxBytesError
			if len(body) > limit != errors.As(err, &tooLarge) {
				t.Errorf("declared %d, %d-byte body: err = %v", declared, len(body), err)
			}
			if c := cap(ds.buf); c > limit+1 {
				t.Errorf("declared %d, %d-byte body: buffer capacity %d > %d", declared, len(body), c, limit+1)
			}
		}
	}

	if rec := serveBinary(h, valid, -1); rec.Code != http.StatusOK {
		t.Fatalf("unknown length: status = %d (%s)", rec.Code, rec.Body)
	}
	settle(t, srv)
	if n := srv.samplesApplied.Load(); n != 1 {
		t.Fatalf("unknown length: applied %d samples, want 1", n)
	}

	// A state a large frame grew, reused for a smaller one.
	large := binFrame(t, "api", vms[1], 0, 5, 10, 15, 20, 25, 30, 35)
	small := binFrame(t, "api", vms[0], 5)
	ds := new(decodeState)
	for _, frame := range [][]byte{large, small} {
		if err := ds.readBody(bytes.NewReader(frame), int64(len(frame)), limit); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ds.buf, frame) {
			t.Fatalf("buffer holds %d bytes, want the %d-byte frame just read", len(ds.buf), len(frame))
		}
	}
	payload, err := wire.Payload(ds.buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.ingestState(ds, payload)
	if err != nil || res.Accepted != 1 {
		t.Fatalf("reused state: %+v, %v; want the small frame's one sample", res, err)
	}
	settle(t, srv)
	if n := srv.samplesApplied.Load(); n != 2 {
		t.Fatalf("applied %d samples, want 2", n)
	}
}

// TestBinaryIngestHandlerAllocs pins the allocations of a steady-state
// binary POST through the handler, including the shard worker's apply.
func TestBinaryIngestHandlerAllocs(t *testing.T) {
	srv, _, traces := newAPIServer(t, Config{})
	h := srv.Handler()
	frame := binFrame(t, "api", sortedVMs(traces)[0], 0)
	body := bytes.NewReader(frame)
	req := httptest.NewRequest("POST", "/v1/samples", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	req.Body = io.NopCloser(body)
	req.ContentLength = int64(len(frame))
	w := &nopResponseWriter{h: make(http.Header)}
	post := func() {
		body.Reset(frame)
		h.ServeHTTP(w, req)
		settle(t, srv)
	}
	post() // warm the pools
	allocs := testing.AllocsPerRun(500, post)
	// What remains is per request, none per sample: the
	// http.MaxBytesReader wrapper, the IngestResult boxed into writeJSON's
	// any, and the value slice Header.Set allocates for Content-Type.
	if allocs > 3 && !raceEnabled {
		t.Fatalf("binary POST allocs/op = %v, want <= 3", allocs)
	}
}

// FuzzIngestHTTPFrame: arbitrary body bytes under an arbitrary
// Content-Length through the HTTP handler agree with IngestFrame on the
// same bytes — same status, same number of samples applied — run
// against a second server that sees the same inputs in the same order.
// A body past MaxBodyBytes, which IngestFrame does not bound, is 413
// and applies nothing.
func FuzzIngestHTTPFrame(f *testing.F) {
	const limit = 2048
	traces := tenantTraces("api", 2, 11)
	vms := sortedVMs(traces)
	newSrv := func() *Server {
		srv, err := New([]TenantConfig{{ID: "api", VMs: vms, Control: testControlConfig(11, testTrainAt)}},
			Config{MaxBodyBytes: limit, MaxBatchSamples: 32})
		if err != nil {
			f.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { srv.Close() })
		return srv
	}
	viaHTTP, oracle := newSrv(), newSrv()
	h := viaHTTP.Handler()

	valid := binFrame(f, "api", vms[0], 0, 5)
	misprefixed := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(misprefixed, uint32(len(valid)-3)) // one past the payload
	for _, body := range [][]byte{
		valid,
		misprefixed,
		binFrame(f, "api", vms[1], 0, 5, 10),
		binFrame(f, "ghost", vms[0], 0),
		binFrame(f, "api", "api-vm99", 0),
		valid[:len(valid)-3],
		valid[:4],
		append(append([]byte(nil), valid...), 'x'),
		append(append([]byte(nil), valid...), make([]byte, limit)...),
		nil,
	} {
		for _, declared := range []int64{int64(len(body)), -1, 0, 1 << 40} {
			f.Add(body, declared)
		}
	}

	f.Fuzz(func(t *testing.T, body []byte, declared int64) {
		applied0, oracle0 := viaHTTP.samplesApplied.Load(), oracle.samplesApplied.Load()
		rec := serveBinary(h, body, declared)
		settle(t, viaHTTP)

		want := http.StatusRequestEntityTooLarge
		if len(body) <= limit {
			_, err := oracle.IngestFrame(body)
			switch {
			case err == nil:
				want = http.StatusOK
			case errors.Is(err, ErrBackpressure):
				want = http.StatusTooManyRequests
			default:
				want = ingestStatus(err)
			}
			settle(t, oracle)
		}
		if rec.Code != want {
			t.Fatalf("HTTP status %d, IngestFrame %d (%s)", rec.Code, want, rec.Body)
		}
		got, exp := viaHTTP.samplesApplied.Load()-applied0, oracle.samplesApplied.Load()-oracle0
		if got != exp {
			t.Fatalf("HTTP applied %d samples, IngestFrame %d", got, exp)
		}
	})
}
