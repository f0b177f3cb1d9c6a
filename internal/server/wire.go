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
// generator. The caller owns frame, so its payload is copied once into
// pooled scratch, then decoded through the arena, validated, and
// enqueued whole; the shard worker appends straight from the column
// slices.
func (s *Server) IngestFrame(frame []byte) (IngestResult, error) {
	payload, err := wire.Payload(frame)
	if err != nil {
		return IngestResult{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	ds := decodePool.Get().(*decodeState)
	ds.buf = append(ds.buf[:0], payload...)
	return s.ingestState(ds, ds.buf)
}

// ingestBody reads one POST body holding a single frame straight into
// a pooled decode state and ingests it — the HTTP twin of IngestFrame
// without its copy. declared is the request's Content-Length (-1 when
// unknown); body is bounded at MaxBodyBytes, and a body past that
// bound is ErrBatchTooLarge.
func (s *Server) ingestBody(body io.Reader, declared int64) (IngestResult, error) {
	ds := decodePool.Get().(*decodeState)
	if err := ds.readBody(body, declared, s.cfg.MaxBodyBytes); err != nil {
		putDecodeState(ds)
		return IngestResult{}, ingestReadError(err)
	}
	payload, err := wire.Payload(ds.buf)
	if err != nil {
		putDecodeState(ds)
		return IngestResult{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return s.ingestState(ds, payload)
}

// readBody reads r to EOF into ds.buf. The buffer starts at the
// declared length (512 bytes when unknown) plus the byte the final read
// needs, and grows by doubling; neither the first size nor any growth
// passes limit+1, the most a reader bounded at limit bytes can make it
// need, so a hostile Content-Length cannot size an allocation. r itself
// enforces limit.
func (ds *decodeState) readBody(r io.Reader, declared, limit int64) error {
	size := min(512, limit) // an unknown length starts small
	if declared >= 0 {
		size = min(declared, limit)
	}
	if int64(cap(ds.buf)) <= size {
		ds.buf = make([]byte, 0, size+1)
	}
	buf := ds.buf[:0]
	for {
		if len(buf) == cap(buf) {
			c := 2 * cap(buf)
			if int64(cap(buf)) <= limit { // else r is not bounded at limit
				c = int(min(int64(c), limit+1))
			}
			buf = append(make([]byte, 0, c), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			ds.buf = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// IngestStream drains a sequence of length-prefixed frames from r —
// the body of a long-lived streaming connection — ingesting each as it
// arrives. Each frame is read straight into a pooled decode state.
// Backpressure rejects individual frames and keeps reading;
// structural errors (malformed frame, unknown tenant, oversized batch)
// stop the stream. A connection dropped mid-frame returns
// io.ErrUnexpectedEOF with every complete prior frame already applied,
// so the pipeline stays consistent: framing makes partial writes
// detectable, and frames are all-or-nothing.
func (s *Server) IngestStream(r io.Reader) (StreamResult, error) {
	var res StreamResult
	maxFrame := int(s.cfg.MaxBodyBytes)
	for {
		ds := decodePool.Get().(*decodeState)
		payload, err := wire.ReadFrame(r, ds.buf, maxFrame)
		if err != nil {
			ds.buf = payload
			putDecodeState(ds)
			if err == io.EOF {
				return res, nil
			}
			if errors.Is(err, wire.ErrFrame) || errors.Is(err, wire.ErrFrameTooLarge) {
				return res, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			return res, io.ErrUnexpectedEOF
		}
		ds.buf = payload
		one, err := s.ingestState(ds, payload)
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

// ingestState decodes the frame payload that already sits in ds.buf
// (payload aliases it), validates the batch against the tenant, and
// enqueues it — the one decode path of IngestFrame, the POST handler
// and IngestStream. On any return path that does not enqueue, the
// state goes back to the pool. The whole path performs no per-sample
// allocation: the tenant and VM lookups use the compiler's zero-alloc
// map[string]-with-byte-slice-key form against the interned slot
// table.
func (s *Server) ingestState(ds *decodeState, payload []byte) (IngestResult, error) {
	start := time.Now()
	b, err := wire.DecodeBatch(payload, &ds.arena)
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
