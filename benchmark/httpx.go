package main

import (
	"bytes"
	"net/http"
	"time"

	"prepare/benchmark/probes"
	"prepare/benchmark/trace"
	"prepare/internal/wire"
)

// respWriter is a reusable in-memory http.ResponseWriter: the benchmark
// drives the service's handler in-process, so a request costs the
// handler's work and not a socket round trip.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: make(http.Header, 4)} }

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(status int) { w.status = status }

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.status = 0
	w.body.Reset()
}

// serve runs one request through h and returns the status; the body is
// left in w.
func serve(h http.Handler, w *respWriter, method, target, contentType string, body []byte) (int, error) {
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w.reset()
	h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, nil
}

// postFrame POSTs one binary frame to /v1/samples, each attempt in a
// span under parent, resending it after probes.RetrySleep for as long as
// the server answers 429. It returns the final status and how many
// resends it took.
func postFrame(h http.Handler, w *respWriter, tr *trace.Tracer, parent int32, op int64, frame []byte) (status, retries int, err error) {
	for {
		post := tr.Begin("server.Handler POST /v1/samples", parent, op)
		status, err = serve(h, w, "POST", "/v1/samples", wire.ContentType, frame)
		tr.End(post)
		if err != nil || status != http.StatusTooManyRequests {
			return status, retries, err
		}
		retries++
		time.Sleep(probes.RetrySleep)
	}
}
