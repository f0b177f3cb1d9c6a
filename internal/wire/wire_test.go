package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"prepare/internal/metrics"
)

// buildBatch fills b with a deterministic batch of n rows across nVMs
// VMs, exercising delta ticks that repeat (same instant, several VMs)
// and advance.
func buildBatch(b *Batch, tenant string, nVMs, n int, seed int64) {
	b.Reset([]byte(tenant))
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < nVMs; v++ {
		b.AddVM([]byte(fmt.Sprintf("vm-%02d", v)))
	}
	t := int64(1000)
	var vals [metrics.NumAttributes]float64
	for i := 0; i < n; i++ {
		if i > 0 && i%nVMs == 0 {
			t += 5
		}
		for a := range vals {
			vals[a] = math.Round(rng.Float64()*1e6) / 1e3
		}
		b.Add(i%nVMs, t, metrics.Label(i%3), vals[:])
	}
}

func mustEncode(t testing.TB, b *Batch) []byte {
	t.Helper()
	frame, err := AppendBatch(nil, b)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	return frame
}

// rawTickFrame is AppendBatch's frame of b with flags 0 and the tick
// column as absolute 8-byte seconds, the layout AppendBatch no longer
// writes but DecodeBatch still accepts from outside clients.
func rawTickFrame(t testing.TB, b *Batch) []byte {
	frame := mustEncode(t, b)
	first := b.Times[0]
	for _, tk := range b.Times {
		first = min(first, tk)
	}
	var deltas, raw []byte
	prev := first
	for _, tk := range b.Times {
		deltas = appendVarint(deltas, tk-prev)
		raw = appendU64(raw, uint64(tk))
		prev = tk
	}
	n := b.Rows()
	end := len(frame) - n - 8*n*metrics.NumAttributes // the label column follows the ticks
	out := append(append(append([]byte(nil), frame[:end-len(deltas)]...), raw...), frame[end:]...)
	out[prefixLen+len(magic)+1] = 0
	binary.LittleEndian.PutUint32(out, uint32(len(out)-prefixLen))
	return out
}

func checkEqual(t *testing.T, want, got *Batch) {
	t.Helper()
	if !bytes.Equal(want.Tenant, got.Tenant) {
		t.Fatalf("tenant %q != %q", got.Tenant, want.Tenant)
	}
	if len(got.VMs) != len(want.VMs) {
		t.Fatalf("nVMs %d != %d", len(got.VMs), len(want.VMs))
	}
	for i := range want.VMs {
		if !bytes.Equal(want.VMs[i], got.VMs[i]) {
			t.Fatalf("VM %d: %q != %q", i, got.VMs[i], want.VMs[i])
		}
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("rows %d != %d", got.Rows(), want.Rows())
	}
	for i := 0; i < want.Rows(); i++ {
		if got.VMIdx[i] != want.VMIdx[i] || got.Times[i] != want.Times[i] || got.Labels[i] != want.Labels[i] {
			t.Fatalf("row %d: (%d,%d,%d) != (%d,%d,%d)", i,
				got.VMIdx[i], got.Times[i], got.Labels[i],
				want.VMIdx[i], want.Times[i], want.Labels[i])
		}
		for a := range want.Cols {
			if got.Cols[a][i] != want.Cols[a][i] {
				t.Fatalf("row %d attr %d: %v != %v", i, a, got.Cols[a][i], want.Cols[a][i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		encode func(testing.TB, *Batch) []byte
	}{
		{"delta", mustEncode},
		{"raw", rawTickFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b Batch
			buildBatch(&b, "tenant-a", 7, 200, 42)
			frame := tc.encode(t, &b)
			payload, err := Payload(frame)
			if err != nil {
				t.Fatalf("Payload: %v", err)
			}
			var a Arena
			got, err := DecodeBatch(payload, &a)
			if err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			checkEqual(t, &b, got)
			if got.TickFirst != 1000 {
				t.Fatalf("TickFirst = %d, want 1000", got.TickFirst)
			}
			if got.TickLast != b.Times[b.Rows()-1] {
				t.Fatalf("TickLast = %d, want %d", got.TickLast, b.Times[b.Rows()-1])
			}
		})
	}
}

func TestRoundTripSingleRowAndSpecialFloats(t *testing.T) {
	var b Batch
	b.Reset([]byte("t"))
	b.AddVM([]byte("v"))
	var vals [metrics.NumAttributes]float64
	vals[0] = math.Inf(1)
	vals[1] = math.Inf(-1)
	vals[2] = math.NaN()
	vals[3] = -0.0
	vals[4] = math.MaxFloat64
	b.Add(0, 0, metrics.LabelNormal, vals[:])
	frame := mustEncode(t, &b)
	payload, _ := Payload(frame)
	var a Arena
	got, err := DecodeBatch(payload, &a)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	for i := range vals {
		w, g := math.Float64bits(vals[i]), math.Float64bits(got.Cols[i][0])
		if w != g {
			t.Fatalf("attr %d bits %x != %x", i, g, w)
		}
	}
}

func TestArenaReuseAcrossSizes(t *testing.T) {
	var a Arena
	var b Batch
	for _, n := range []int{300, 4, 300, 17} {
		buildBatch(&b, "ten", 3, n, int64(n))
		frame := mustEncode(t, &b)
		payload, _ := Payload(frame)
		got, err := DecodeBatch(payload, &a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkEqual(t, &b, got)
	}
}

func TestEncodeRejects(t *testing.T) {
	var vals [metrics.NumAttributes]float64
	mk := func(mut func(*Batch)) *Batch {
		var b Batch
		b.Reset([]byte("t"))
		b.AddVM([]byte("v"))
		b.Add(0, 10, metrics.LabelNormal, vals[:])
		mut(&b)
		return &b
	}
	for _, tc := range []struct {
		name string
		b    *Batch
	}{
		{"no tenant", mk(func(b *Batch) { b.Tenant = nil })},
		{"no rows", mk(func(b *Batch) { b.VMIdx, b.Times, b.Labels = nil, nil, nil })},
		{"ragged columns", mk(func(b *Batch) { b.Cols[2] = b.Cols[2][:0] })},
		{"empty dictionary entry", mk(func(b *Batch) { b.VMs[0] = nil })},
		{"negative time", mk(func(b *Batch) { b.Times[0] = -1 })},
		{"vm index out of range", mk(func(b *Batch) { b.VMIdx[0] = 9 })},
		{"bad label", mk(func(b *Batch) { b.Labels[0] = 7 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AppendBatch(nil, tc.b); err == nil {
				t.Fatal("AppendBatch accepted an invalid batch")
			}
		})
	}
}

// corrupt decodes must all fail with ErrFrame and never panic.
func TestDecodeRejects(t *testing.T) {
	var b Batch
	buildBatch(&b, "tenant", 3, 30, 7)
	frame := mustEncode(t, &b)
	valid, _ := Payload(frame)

	mutate := func(f func(p []byte) []byte) []byte {
		p := append([]byte(nil), valid...)
		return f(p)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short", valid[:8]},
		{"bad magic", mutate(func(p []byte) []byte { p[0] = 'X'; return p })},
		{"bad version", mutate(func(p []byte) []byte { p[3] = 9; return p })},
		{"unknown flags", mutate(func(p []byte) []byte { p[4] = 0x80; return p })},
		{"truncated header", valid[:len(valid)/4]},
		{"truncated body", valid[:len(valid)-5]},
		{"trailing bytes", mutate(func(p []byte) []byte { return append(p, 0) })},
	}
	// Hostile counts: patch nRows (or the dictionary count) to huge
	// values and confirm the bound checks fire before any allocation.
	cases = append(cases, struct {
		name    string
		payload []byte
	}{"hostile nVMs", mutate(func(p []byte) []byte {
		// tenant len varint is at offset 5; "tenant" is 6 bytes.
		i := 5 + 1 + 6
		_, n1 := binary.Uvarint(p[i:]) // tickFirst
		i += n1
		_, n2 := binary.Uvarint(p[i:]) // tickLast
		i += n2
		// Overwrite nVMs=3 (one byte) with a huge varint; lengths
		// shift, but the decoder must reject before reading entries.
		return append(p[:i], append(binary.AppendUvarint(nil, 1<<40), p[i+1:]...)...)
	})})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a Arena
			if _, err := DecodeBatch(tc.payload, &a); !errors.Is(err, ErrFrame) {
				t.Fatalf("err = %v, want ErrFrame", err)
			}
		})
	}
}

func TestDecodeRejectsSemanticCorruption(t *testing.T) {
	// Raw ticks make field offsets easy to corrupt deterministically:
	// re-encode with an out-of-range tick by lying about the range.
	var b Batch
	b.Reset([]byte("t"))
	b.AddVM([]byte("v"))
	var vals [metrics.NumAttributes]float64
	b.Add(0, 100, metrics.LabelNormal, vals[:])
	b.Add(0, 200, metrics.LabelNormal, vals[:])
	frame := rawTickFrame(t, &b)
	payload, _ := Payload(frame)

	// Find the raw tick column: last 2*8*(NumAttributes) bytes are the
	// attribute columns, preceded by 2 label bytes, preceded by 16 tick
	// bytes.
	tickOff := len(payload) - 16*metrics.NumAttributes - 2 - 16
	bad := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(bad[tickOff:], 999) // outside [100,200]
	var a Arena
	if _, err := DecodeBatch(bad, &a); !errors.Is(err, ErrFrame) {
		t.Fatalf("out-of-range tick: err = %v, want ErrFrame", err)
	}

	// Dictionary index out of range: the vm column is 2 uvarint bytes
	// right after nRows; patch the first to 7.
	vmOff := tickOff - 2
	bad2 := append([]byte(nil), payload...)
	bad2[vmOff] = 7
	if _, err := DecodeBatch(bad2, &a); !errors.Is(err, ErrFrame) {
		t.Fatalf("vm index out of range: err = %v, want ErrFrame", err)
	}
}

func TestReadFrame(t *testing.T) {
	var b Batch
	buildBatch(&b, "ten", 2, 20, 3)
	frame := mustEncode(t, &b)
	two := append(append([]byte(nil), frame...), frame...)

	r := bytes.NewReader(two)
	var buf []byte
	var a Arena
	for i := 0; i < 2; i++ {
		payload, err := ReadFrame(r, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = payload
		got, err := DecodeBatch(payload, &a)
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		checkEqual(t, &b, got)
	}
	if _, err := ReadFrame(r, buf, 0); err != io.EOF {
		t.Fatalf("at boundary: err = %v, want io.EOF", err)
	}

	// EOF inside the prefix and inside the payload.
	for _, cut := range []int{2, len(frame) - 3} {
		r := bytes.NewReader(frame[:cut])
		if _, err := ReadFrame(r, nil, 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	// Oversized prefix rejected without reading the payload.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, err := ReadFrame(bytes.NewReader(huge), nil, 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge prefix: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestPayloadRejectsPrefixMismatch(t *testing.T) {
	var b Batch
	buildBatch(&b, "ten", 2, 5, 1)
	frame := mustEncode(t, &b)
	bad := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad, uint32(len(frame))) // too large
	if _, err := Payload(bad); !errors.Is(err, ErrFrame) {
		t.Fatalf("err = %v, want ErrFrame", err)
	}
	if _, err := Payload(frame[:6]); !errors.Is(err, ErrFrame) {
		t.Fatalf("short frame: err = %v, want ErrFrame", err)
	}
}

// TestDecodeSteadyStateZeroAlloc pins the acceptance criterion: after
// warm-up, DecodeBatch into a reused Arena performs zero allocations.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	var b Batch
	buildBatch(&b, "tenant-alloc", 8, 512, 99)
	frame := mustEncode(t, &b)
	payload, _ := Payload(frame)
	var a Arena
	if _, err := DecodeBatch(payload, &a); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBatch(payload, &a); err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeBatch allocs/op = %v, want 0", allocs)
	}
}

// TestEncodeSteadyStateZeroAlloc pins the same property for the encode
// side with a caller-owned destination buffer.
func TestEncodeSteadyStateZeroAlloc(t *testing.T) {
	var b Batch
	buildBatch(&b, "tenant-alloc", 8, 512, 99)
	buf, err := AppendBatch(nil, &b)
	if err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendBatch(buf[:0], &b)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendBatch allocs/op = %v, want 0", allocs)
	}
}
