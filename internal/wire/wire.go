// Package wire defines the binary columnar batch format the controller
// service's ingest path speaks alongside HTTP/JSON. A frame carries one
// tenant's batch of VM metric samples already laid out the way
// internal/columnar wants them — one packed little-endian float64
// column per monitored attribute — so the server decodes straight into
// reusable column slices instead of unmarshalling one JSON object per
// sample into row structs.
//
// Frame layout (version 1; all fixed-width integers little-endian,
// varints are encoding/binary uvarint/varint):
//
//	u32     payload length (bytes after this prefix)
//	"PCB"   magic
//	u8      version (1)
//	u8      flags (bit0: tick column is zigzag-varint delta encoded;
//	        AppendBatch always sets it, DecodeBatch accepts either)
//	uvarint tenant length, then tenant bytes
//	uvarint tickFirst   — smallest sample time in the batch, seconds
//	uvarint tickLast    — largest sample time in the batch, seconds
//	uvarint nVMs, then nVMs × (uvarint length + bytes)   — VM-ID dictionary
//	uvarint nAttrs      — must equal metrics.NumAttributes
//	uvarint nRows
//	vm column:    nRows × uvarint            — dictionary index per row
//	tick column:  delta: nRows × varint      — row 0 relative to tickFirst,
//	                                           then row-to-row deltas
//	              raw:   nRows × u64         — absolute seconds
//	label column: nRows × u8                 — metrics.Label values
//	body:         nAttrs × nRows × u64       — float64 bits, one packed
//	                                           column per attribute
//
// The header is self-describing enough for a decoder to reject frames
// from a different schema (version, attribute count) before touching
// the body, and the tick range doubles as a validity bound: every
// decoded tick must fall inside [tickFirst, tickLast].
//
// Encoding appends to a caller-owned buffer and decoding fills a
// caller-owned Arena, so both directions are allocation-free in steady
// state; decoded Tenant and VM-ID byte slices alias the input frame,
// which therefore must outlive the decoded Batch.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"prepare/internal/metrics"
)

// ContentType is the HTTP media type for a single columnar frame body
// (and, on the streaming endpoint, a sequence of length-prefixed
// frames).
const ContentType = "application/x-prepare-columnar"

// Version is the wire format version this package encodes.
const Version = 1

const (
	// flagDeltaTicks marks the tick column as zigzag-varint deltas
	// instead of raw 8-byte seconds.
	flagDeltaTicks = 1 << 0

	// magic are the first payload bytes of every frame.
	magic = "PCB"

	// prefixLen is the length-prefix size framing a payload.
	prefixLen = 4

	// minPayload is the smallest structurally possible payload: magic,
	// version, flags, and seven varints that are at least one byte each.
	minPayload = len(magic) + 2 + 7
)

// DefaultMaxFrameBytes bounds a frame payload when the caller does not
// say otherwise (16 MiB — roughly 150k samples).
const DefaultMaxFrameBytes = 16 << 20

// ErrFrame is wrapped by every decode error: the frame is malformed,
// truncated, from an unsupported version, or self-inconsistent.
var ErrFrame = errors.New("wire: malformed frame")

// ErrFrameTooLarge is returned by ReadFrame when the length prefix
// exceeds the configured bound — the streaming peer is either corrupt
// or hostile, and the connection should be dropped.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")

// Batch is one tenant's columnar sample batch: the decoded view of a
// frame, and the builder the encoder consumes. Row i is the sample
// (VMs[VMIdx[i]], Times[i], Labels[i], Cols[*][i]). Decoded Tenant and
// VMs alias the frame buffer.
type Batch struct {
	Tenant []byte
	// VMs is the VM-ID dictionary; VMIdx indexes into it.
	VMs [][]byte
	// TickFirst and TickLast bound Times (inclusive).
	TickFirst, TickLast int64

	VMIdx  []uint32
	Times  []int64
	Labels []metrics.Label
	// Cols holds one packed column per attribute: Cols[a][i] is
	// attribute a of row i.
	Cols [metrics.NumAttributes][]float64
}

// Rows returns the number of samples in the batch.
func (b *Batch) Rows() int { return len(b.Times) }

// Reset empties the batch for reuse, keeping every backing array.
func (b *Batch) Reset(tenant []byte) {
	b.Tenant = tenant
	b.VMs = b.VMs[:0]
	b.TickFirst, b.TickLast = 0, 0
	b.VMIdx = b.VMIdx[:0]
	b.Times = b.Times[:0]
	b.Labels = b.Labels[:0]
	for a := range b.Cols {
		b.Cols[a] = b.Cols[a][:0]
	}
}

// AddVM appends a dictionary entry and returns its index.
func (b *Batch) AddVM(id []byte) int {
	b.VMs = append(b.VMs, id)
	return len(b.VMs) - 1
}

// Add appends one sample row. values must hold metrics.NumAttributes
// elements in Attribute.Index order.
func (b *Batch) Add(vmIdx int, t int64, label metrics.Label, values []float64) {
	b.VMIdx = append(b.VMIdx, uint32(vmIdx))
	b.Times = append(b.Times, t)
	b.Labels = append(b.Labels, label)
	_ = values[metrics.NumAttributes-1]
	for a := range b.Cols {
		b.Cols[a] = append(b.Cols[a], values[a])
	}
}

// AppendBatch appends one length-prefixed frame encoding b to dst and
// returns the extended buffer, using delta-encoded ticks. It allocates
// only when dst lacks capacity.
func AppendBatch(dst []byte, b *Batch) ([]byte, error) {
	if len(b.Tenant) == 0 {
		return dst, errors.New("wire: tenant is required")
	}
	n := b.Rows()
	if n == 0 {
		return dst, errors.New("wire: batch has no rows")
	}
	if len(b.VMIdx) != n || len(b.Labels) != n {
		return dst, fmt.Errorf("wire: column lengths disagree (%d times, %d vms, %d labels)", n, len(b.VMIdx), len(b.Labels))
	}
	for a := range b.Cols {
		if len(b.Cols[a]) != n {
			return dst, fmt.Errorf("wire: attribute column %d has %d rows, want %d", a, len(b.Cols[a]), n)
		}
	}
	if len(b.VMs) == 0 {
		return dst, errors.New("wire: VM dictionary is empty")
	}
	for i, id := range b.VMs {
		if len(id) == 0 {
			return dst, fmt.Errorf("wire: VM dictionary entry %d is empty", i)
		}
	}
	first, last := b.Times[0], b.Times[0]
	for _, t := range b.Times {
		if t < 0 {
			return dst, fmt.Errorf("wire: negative sample time %d", t)
		}
		if t < first {
			first = t
		}
		if t > last {
			last = t
		}
	}
	for i, v := range b.VMIdx {
		if int(v) >= len(b.VMs) {
			return dst, fmt.Errorf("wire: row %d VM index %d out of range [0,%d)", i, v, len(b.VMs))
		}
	}
	for i, l := range b.Labels {
		if l != metrics.LabelUnknown && l != metrics.LabelNormal && l != metrics.LabelAbnormal {
			return dst, fmt.Errorf("wire: row %d has invalid label %d", i, int(l))
		}
	}

	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, magic...)
	dst = append(dst, Version, flagDeltaTicks)
	dst = appendUvarint(dst, uint64(len(b.Tenant)))
	dst = append(dst, b.Tenant...)
	dst = appendUvarint(dst, uint64(first))
	dst = appendUvarint(dst, uint64(last))
	dst = appendUvarint(dst, uint64(len(b.VMs)))
	for _, id := range b.VMs {
		dst = appendUvarint(dst, uint64(len(id)))
		dst = append(dst, id...)
	}
	dst = appendUvarint(dst, uint64(metrics.NumAttributes))
	dst = appendUvarint(dst, uint64(n))
	for _, v := range b.VMIdx {
		dst = appendUvarint(dst, uint64(v))
	}
	prev := first
	for _, t := range b.Times {
		dst = appendVarint(dst, t-prev)
		prev = t
	}
	for _, l := range b.Labels {
		dst = append(dst, byte(l))
	}
	for a := range b.Cols {
		for _, v := range b.Cols[a] {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}

	payload := len(dst) - start - prefixLen
	if payload > math.MaxUint32 {
		return dst[:start], fmt.Errorf("wire: %d-byte payload exceeds the frame limit", payload)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

// Arena owns the reusable decode scratch. A zero Arena is ready; after
// the first few decodes, DecodeBatch into the same Arena allocates
// nothing. The decoded Batch is valid until the next DecodeBatch with
// the same Arena (and no longer than the frame buffer it aliases).
type Arena struct {
	batch Batch
}

// Batch returns the Arena's most recently decoded batch.
func (a *Arena) Batch() *Batch { return &a.batch }

// decoder walks a payload.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, fmt.Errorf("%w: truncated (need %d bytes, have %d)", ErrFrame, n, d.remaining())
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrFrame, d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrFrame, d.off)
	}
	d.off += n
	return v, nil
}

// DecodeBatch decodes one frame payload (the bytes after the length
// prefix) into the Arena and returns the Arena's batch view. Decoded
// Tenant and VM-ID slices alias payload. Every validation failure wraps
// ErrFrame.
func DecodeBatch(payload []byte, a *Arena) (*Batch, error) {
	if len(payload) < minPayload {
		return nil, fmt.Errorf("%w: %d-byte payload is shorter than any frame", ErrFrame, len(payload))
	}
	d := decoder{buf: payload}
	m, _ := d.bytes(len(magic))
	if string(m) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFrame, m)
	}
	hdr, _ := d.bytes(2)
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrFrame, hdr[0], Version)
	}
	flags := hdr[1]
	if flags&^byte(flagDeltaTicks) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrFrame, flags)
	}
	deltaTicks := flags&flagDeltaTicks != 0

	b := &a.batch
	tn, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if tn == 0 {
		return nil, fmt.Errorf("%w: empty tenant", ErrFrame)
	}
	if b.Tenant, err = d.bytes(int(tn)); err != nil {
		return nil, err
	}
	tickFirst, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	tickLast, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if tickFirst > tickLast || tickLast > math.MaxInt64 {
		return nil, fmt.Errorf("%w: tick range [%d,%d] is invalid", ErrFrame, tickFirst, tickLast)
	}
	b.TickFirst, b.TickLast = int64(tickFirst), int64(tickLast)

	nVMs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Each dictionary entry needs at least two bytes (length + one ID
	// byte), so the remaining payload bounds nVMs before any growth.
	if nVMs == 0 || nVMs > uint64(d.remaining()/2) {
		return nil, fmt.Errorf("%w: dictionary of %d VMs cannot fit in %d bytes", ErrFrame, nVMs, d.remaining())
	}
	b.VMs = growSlices(b.VMs, int(nVMs))
	for i := range b.VMs {
		ln, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ln == 0 {
			return nil, fmt.Errorf("%w: dictionary entry %d is empty", ErrFrame, i)
		}
		if b.VMs[i], err = d.bytes(int(ln)); err != nil {
			return nil, err
		}
	}

	nAttrs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nAttrs != metrics.NumAttributes {
		return nil, fmt.Errorf("%w: %d attribute columns, want %d", ErrFrame, nAttrs, metrics.NumAttributes)
	}
	nRows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Bound nRows by the cheapest possible encoding of what must still
	// follow — one byte each for VM index, tick delta, and label, plus
	// the 8-byte attribute columns — before growing the arena.
	minRow := 3
	if !deltaTicks {
		minRow = 2 + 8
	}
	minRow += 8 * metrics.NumAttributes
	if nRows == 0 || nRows > uint64(d.remaining()/minRow) {
		return nil, fmt.Errorf("%w: %d rows cannot fit in %d bytes", ErrFrame, nRows, d.remaining())
	}
	n := int(nRows)
	b.VMIdx = growU32(b.VMIdx, n)
	b.Times = growI64(b.Times, n)
	b.Labels = growLabels(b.Labels, n)
	for a := range b.Cols {
		b.Cols[a] = growF64(b.Cols[a], n)
	}

	for i := 0; i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= nVMs {
			return nil, fmt.Errorf("%w: row %d VM index %d out of range [0,%d)", ErrFrame, i, v, nVMs)
		}
		b.VMIdx[i] = uint32(v)
	}
	if deltaTicks {
		prev := b.TickFirst
		for i := 0; i < n; i++ {
			dv, err := d.varint()
			if err != nil {
				return nil, err
			}
			t := prev + dv
			if t < b.TickFirst || t > b.TickLast {
				return nil, fmt.Errorf("%w: row %d tick %d outside range [%d,%d]", ErrFrame, i, t, b.TickFirst, b.TickLast)
			}
			b.Times[i] = t
			prev = t
		}
	} else {
		raw, err := d.bytes(8 * n)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			t := int64(binary.LittleEndian.Uint64(raw[8*i:]))
			if t < b.TickFirst || t > b.TickLast {
				return nil, fmt.Errorf("%w: row %d tick %d outside range [%d,%d]", ErrFrame, i, t, b.TickFirst, b.TickLast)
			}
			b.Times[i] = t
		}
	}
	labels, err := d.bytes(n)
	if err != nil {
		return nil, err
	}
	for i, l := range labels {
		if l > byte(metrics.LabelAbnormal) {
			return nil, fmt.Errorf("%w: row %d has invalid label %d", ErrFrame, i, l)
		}
		b.Labels[i] = metrics.Label(l)
	}
	for a := range b.Cols {
		raw, err := d.bytes(8 * n)
		if err != nil {
			return nil, err
		}
		col := b.Cols[a]
		for i := 0; i < n; i++ {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrame, d.remaining())
	}
	return b, nil
}

// ReadFrame reads one length-prefixed frame from r into buf (growing it
// only when capacity is short) and returns the payload slice. A clean
// io.EOF before any prefix byte means the stream ended at a frame
// boundary; EOF inside a frame surfaces as io.ErrUnexpectedEOF. A
// prefix larger than maxBytes (<= 0 uses DefaultMaxFrameBytes) returns
// ErrFrameTooLarge without consuming the payload.
func ReadFrame(r io.Reader, buf []byte, maxBytes int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFrameBytes
	}
	var prefix [prefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return buf[:0], io.EOF
		}
		return buf[:0], io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint32(prefix[:]))
	if n > maxBytes {
		return buf[:0], fmt.Errorf("%w: %d bytes > %d", ErrFrameTooLarge, n, maxBytes)
	}
	if n < minPayload {
		return buf[:0], fmt.Errorf("%w: %d-byte payload is shorter than any frame", ErrFrame, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], io.ErrUnexpectedEOF
	}
	return buf, nil
}

// Payload strips and checks the length prefix of a buffer holding
// exactly one frame (the shape of a POST body).
func Payload(frame []byte) ([]byte, error) {
	if len(frame) < prefixLen+minPayload {
		return nil, fmt.Errorf("%w: %d-byte frame is shorter than any frame", ErrFrame, len(frame))
	}
	n := int(binary.LittleEndian.Uint32(frame))
	if n != len(frame)-prefixLen {
		return nil, fmt.Errorf("%w: length prefix %d does not match %d payload bytes", ErrFrame, n, len(frame)-prefixLen)
	}
	return frame[prefixLen:], nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendVarint(dst []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutVarint(tmp[:], v)]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

func growSlices(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growLabels(s []metrics.Label, n int) []metrics.Label {
	if cap(s) < n {
		return make([]metrics.Label, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
