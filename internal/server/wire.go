package server

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"prepare/internal/wire"
)

// ErrBadFrame: the binary ingest body is not a valid columnar frame.
// Mapped to 400 by the API layer.
var ErrBadFrame = errors.New("server: malformed binary frame")

// decodeState is the pooled per-batch scratch that carries one tenant's
// columnar batch from the ingest goroutine to the shard worker without
// materializing intermediate sample structs: the frame buffer, the
// arena whose batch is either decoded from that buffer (binary frames)
// or filled through the wire.Batch builder (Ingest's JSON and Go
// batches), and the batch's VM-ID dictionary resolved to the tenant's
// substrate slots. Ownership passes to the shard queue on enqueue; the
// worker returns it to the pool after the apply stage.
type decodeState struct {
	buf   []byte // frame payload; the arena's batch aliases it
	arena wire.Arena
	slots []int32 // VM-ID dictionary resolved to substrate slots
}

var decodePool = sync.Pool{New: func() any { return new(decodeState) }}

func putDecodeState(ds *decodeState) { decodePool.Put(ds) }

// StreamResult summarizes one streaming ingest connection.
type StreamResult struct {
	Frames      int `json:"frames"`
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// IngestFrame ingests one length-prefixed binary columnar frame — the
// binary counterpart of Ingest, callable in-process by the load
// generator. The frame bytes are copied into pooled scratch, decoded
// through the arena, validated, and enqueued whole; the shard worker
// appends straight from the column slices.
func (s *Server) IngestFrame(frame []byte) (IngestResult, error) {
	var res IngestResult
	payload, err := wire.Payload(frame)
	if err != nil {
		return res, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return s.ingestPayload(payload)
}

// IngestStream drains a sequence of length-prefixed frames from r —
// the body of a long-lived streaming connection — ingesting each as it
// arrives. Backpressure rejects individual frames and keeps reading;
// structural errors (malformed frame, unknown tenant, oversized batch)
// stop the stream. A connection dropped mid-frame returns
// io.ErrUnexpectedEOF with every complete prior frame already applied,
// so the pipeline stays consistent: framing makes partial writes
// detectable, and frames are all-or-nothing.
func (s *Server) IngestStream(r io.Reader) (StreamResult, error) {
	var res StreamResult
	maxFrame := int(s.cfg.MaxBodyBytes)
	var scratch []byte
	for {
		payload, err := wire.ReadFrame(r, scratch, maxFrame)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			if errors.Is(err, wire.ErrFrame) || errors.Is(err, wire.ErrFrameTooLarge) {
				return res, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			return res, io.ErrUnexpectedEOF
		}
		scratch = payload[:0]
		one, err := s.ingestPayload(payload)
		res.Frames++
		res.Accepted += one.Accepted
		res.Rejected += one.Rejected
		if err != nil {
			if errors.Is(err, ErrBackpressure) {
				res.RetryAfterS = one.RetryAfterS
				continue // open loop: the frame is rejected, the stream lives
			}
			return res, err
		}
	}
}

// ingestPayload copies one frame payload into pooled scratch, decodes
// it, validates the batch against the tenant, and enqueues it. On any
// return path that does not enqueue, the state goes back to the pool.
// The whole path performs no per-sample allocation: the tenant and VM
// lookups use the compiler's zero-alloc map[string]-with-byte-slice-key
// form against the interned slot table.
func (s *Server) ingestPayload(payload []byte) (IngestResult, error) {
	ds := decodePool.Get().(*decodeState)
	ds.buf = append(ds.buf[:0], payload...)
	start := time.Now()
	b, err := wire.DecodeBatch(ds.buf, &ds.arena)
	if err != nil {
		putDecodeState(ds)
		return IngestResult{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	s.tel.decodeLatency.ObserveSince(start)
	t := s.tenants[string(b.Tenant)]
	if t == nil {
		putDecodeState(ds)
		return IngestResult{}, fmt.Errorf("%w: %q", ErrUnknownTenant, b.Tenant)
	}
	if n := b.Rows(); n > s.cfg.MaxBatchSamples {
		putDecodeState(ds)
		return IngestResult{}, fmt.Errorf("%w: %d samples exceed the %d-sample limit", ErrBatchTooLarge, n, s.cfg.MaxBatchSamples)
	}
	if cap(ds.slots) < len(b.VMs) {
		ds.slots = make([]int32, len(b.VMs))
	}
	ds.slots = ds.slots[:len(b.VMs)]
	for i, id := range b.VMs {
		slot, ok := t.intern[string(id)]
		if !ok {
			putDecodeState(ds)
			return IngestResult{}, fmt.Errorf("%w: tenant %q has no VM %q", ErrBadBatch, t.id, id)
		}
		ds.slots[i] = slot
	}

	items := [1]item{{tenant: t, ds: ds, enqueuedAt: time.Now()}}
	res, err := s.enqueue(items[:])
	if !errors.Is(err, ErrNotRunning) {
		s.binaryFrames.Add(1)
		s.tel.frames.Inc()
	}
	return res, err
}
