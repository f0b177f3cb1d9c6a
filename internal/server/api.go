package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"prepare/internal/telemetry"
	"prepare/internal/wire"
)

// ingestRequest is the POST /v1/samples body.
type ingestRequest struct {
	Batches []Batch `json:"batches"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// alertsResponse is the GET /v1/alerts body: alerts with sequence
// numbers strictly greater than the since cursor, plus the cursor to
// pass next. Truncated means the ring evicted records between the
// cursor and FirstSeq — the client fell too far behind.
type alertsResponse struct {
	Alerts    []Alert `json:"alerts"`
	Next      uint64  `json:"next"`
	FirstSeq  uint64  `json:"first_seq"`
	Truncated bool    `json:"truncated"`
}

type auditResponse struct {
	Actions   []AuditEntry `json:"actions"`
	Next      uint64       `json:"next"`
	FirstSeq  uint64       `json:"first_seq"`
	Truncated bool         `json:"truncated"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/samples            — batched sample ingest: JSON, or one binary
//	                              columnar frame when Content-Type is
//	                              application/x-prepare-columnar
//	                              (429 + Retry-After on backpressure)
//	POST /v1/stream             — persistent binary ingest: length-prefixed
//	                              columnar frames on one long-lived connection
//	GET  /v1/alerts?since=&limit= — confirmed alerts after the cursor
//	GET  /v1/audit?since=&limit=  — actuation audit log after the cursor
//	GET  /v1/tenants/{id}/model — the tenant's current model snapshot
//	GET  /v1/checkpoint         — a fresh warm-failover checkpoint
//	GET  /v1/stats              — pipeline counters
//	GET  /healthz, /readyz      — liveness / readiness
//	GET  /metrics, /trace       — telemetry (when enabled)
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/samples", s.handleIngest)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/tenants/{id}/model", s.handleModel)
	mux.HandleFunc("GET /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.Telemetry != nil {
		th := telemetry.Handler(func() *telemetry.Registry { return s.cfg.Telemetry })
		mux.Handle("GET /metrics", th)
		mux.Handle("GET /trace", th)
	}
	return mux
}

// encBuf is the pooled response-encoding scratch: the encoder is bound
// to the buffer once at pool-New time, so a steady-state response costs
// neither a fresh json.Encoder nor a fresh buffer.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	eb := &encBuf{}
	eb.enc = json.NewEncoder(&eb.buf)
	return eb
}}

func writeJSON(w http.ResponseWriter, status int, v any) {
	eb := encPool.Get().(*encBuf)
	eb.buf.Reset()
	if err := eb.enc.Encode(v); err != nil {
		encPool.Put(eb)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(eb.buf.Bytes())
	encPool.Put(eb)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// isBinaryIngest reports whether the request negotiated the columnar
// wire format.
func isBinaryIngest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == wire.ContentType
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if isBinaryIngest(r) {
		frame, err := io.ReadAll(body)
		if err != nil {
			writeIngestReadError(w, err)
			return
		}
		res, err := s.IngestFrame(frame)
		writeIngestResult(w, res, err)
		return
	}
	payload, err := io.ReadAll(body)
	if err != nil {
		writeIngestReadError(w, err)
		return
	}
	res, err := s.IngestJSON(payload)
	writeIngestResult(w, res, err)
}

// IngestJSON decodes one JSON ingest request body and enqueues it —
// the exact decode+validate path the HTTP handler runs, callable
// in-process to drive the JSON transport without a network.
func (s *Server) IngestJSON(body []byte) (IngestResult, error) {
	start := time.Now()
	var req ingestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return IngestResult{}, fmt.Errorf("%w: decode request: %v", ErrBadBatch, err)
	}
	s.tel.decodeLatency.ObserveSince(start)
	return s.Ingest(req.Batches)
}

// writeIngestReadError maps body-read failures: MaxBytesReader overflow
// is the client's fault and sized like ErrBatchTooLarge (413),
// everything else is a malformed request (400).
func writeIngestReadError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%w: body exceeds %d bytes", ErrBatchTooLarge, tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// writeIngestResult maps Ingest/IngestFrame outcomes onto HTTP statuses.
func writeIngestResult(w http.ResponseWriter, res IngestResult, err error) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrBackpressure):
		w.Header().Set("Retry-After", strconv.Itoa(res.RetryAfterS))
		writeJSON(w, http.StatusTooManyRequests, res)
	default:
		writeError(w, ingestStatus(err), err)
	}
}

// ingestStatus maps a rejected ingest onto its HTTP status: the
// client's fault is 404 for an unknown tenant, 413 for an oversized
// batch, and 400 for anything else malformed; a stopped pipeline is
// 503.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotRunning):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// handleStream drains length-prefixed binary frames from a long-lived
// request body, applying each as it arrives. The summary is written
// when the client closes its end (or on the first structural error);
// per-frame results are not echoed — the stream is fire-and-forget with
// the final tally reporting loss.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !isBinaryIngest(r) {
		writeError(w, http.StatusUnsupportedMediaType, fmt.Errorf("stream ingest requires Content-Type %s", wire.ContentType))
		return
	}
	res, err := s.IngestStream(r.Body)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, io.ErrUnexpectedEOF):
		// The connection dropped mid-frame; complete frames are applied.
		writeError(w, http.StatusBadRequest, fmt.Errorf("stream truncated mid-frame after %d complete frames", res.Frames))
	default:
		writeError(w, ingestStatus(err), err)
	}
}

// cursorParams parses ?since= and ?limit=.
func cursorParams(r *http.Request) (since uint64, limit int, err error) {
	q := r.URL.Query()
	if v := q.Get("since"); v != "" {
		since, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad since cursor %q", v)
		}
	}
	limit = 1000
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit <= 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return since, limit, nil
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	since, limit, err := cursorParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items, next, first, truncated := s.alerts.since(since, limit)
	if items == nil {
		items = []Alert{}
	}
	writeJSON(w, http.StatusOK, alertsResponse{Alerts: items, Next: next, FirstSeq: first, Truncated: truncated})
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	since, limit, err := cursorParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items, next, first, truncated := s.audit.since(since, limit)
	if items == nil {
		items = []AuditEntry{}
	}
	writeJSON(w, http.StatusOK, auditResponse{Actions: items, Next: next, FirstSeq: first, Truncated: truncated})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	data, err := s.TenantModel(r.PathValue("id"))
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	case errors.Is(err, ErrUnknownTenant):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotRunning):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		// Typically: models not trained yet.
		writeError(w, http.StatusConflict, err)
	}
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		if errors.Is(err, ErrNotRunning) {
			writeError(w, http.StatusServiceUnavailable, err)
		} else {
			writeError(w, http.StatusConflict, err)
		}
		return
	}
	s.lastCkpt.Store(buf.Bytes())
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if err := s.Failure(); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("pipeline failed: %w", err))
		return
	}
	if !s.running() {
		writeError(w, http.StatusServiceUnavailable, ErrNotRunning)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}
