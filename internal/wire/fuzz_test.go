package wire

import (
	"bytes"
	"math"
	"testing"

	"prepare/internal/metrics"
)

// FuzzWireDecodeBatch throws arbitrary bytes at DecodeBatch. The
// decoder must never panic, and anything it accepts must satisfy the
// format's invariants and survive a re-encode/re-decode round trip.
func FuzzWireDecodeBatch(f *testing.F) {
	// Seed corpus: valid frames of both tick encodings plus the
	// interesting corruption classes from the unit tests.
	var b Batch
	buildBatch(&b, "fuzz-tenant", 4, 50, 11)
	for _, frame := range [][]byte{mustEncode(f, &b), rawTickFrame(f, &b)} {
		payload, _ := Payload(frame)
		f.Add(payload)
		f.Add(payload[:len(payload)/2])            // truncated body
		f.Add(payload[:8])                         // truncated header
		f.Add(append([]byte(nil), payload[4:]...)) // missing magic
		hostile := append([]byte(nil), payload...)
		hostile[3] = 99 // bad version
		f.Add(hostile)
	}
	f.Add([]byte("PCB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var a Arena
		got, err := DecodeBatch(payload, &a)
		if err != nil {
			return
		}
		// Accepted frames must be internally consistent...
		n := got.Rows()
		if n == 0 || len(got.Tenant) == 0 || len(got.VMs) == 0 {
			t.Fatalf("accepted degenerate batch: rows=%d tenant=%q vms=%d", n, got.Tenant, len(got.VMs))
		}
		if len(got.VMIdx) != n || len(got.Labels) != n {
			t.Fatalf("ragged columns: %d rows, %d vms, %d labels", n, len(got.VMIdx), len(got.Labels))
		}
		for i := 0; i < n; i++ {
			if int(got.VMIdx[i]) >= len(got.VMs) {
				t.Fatalf("row %d vm index %d out of range", i, got.VMIdx[i])
			}
			if got.Times[i] < got.TickFirst || got.Times[i] > got.TickLast {
				t.Fatalf("row %d tick %d outside [%d,%d]", i, got.Times[i], got.TickFirst, got.TickLast)
			}
			if got.Labels[i] > metrics.LabelAbnormal {
				t.Fatalf("row %d label %d invalid", i, got.Labels[i])
			}
		}
		// ...and round-trip: re-encoding and re-decoding must preserve
		// every column bit-for-bit.
		reFrame, err := AppendBatch(nil, got)
		if err != nil {
			t.Fatalf("re-encode of an accepted batch failed: %v", err)
		}
		rePayload, err := Payload(reFrame)
		if err != nil {
			t.Fatalf("re-encoded frame has a bad prefix: %v", err)
		}
		var a2 Arena
		got2, err := DecodeBatch(rePayload, &a2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(got.Tenant, got2.Tenant) || got2.Rows() != n {
			t.Fatalf("round trip changed shape")
		}
		for i := 0; i < n; i++ {
			if got.VMIdx[i] != got2.VMIdx[i] || got.Times[i] != got2.Times[i] || got.Labels[i] != got2.Labels[i] {
				t.Fatalf("round trip changed row %d", i)
			}
			for ai := range got.Cols {
				if math.Float64bits(got.Cols[ai][i]) != math.Float64bits(got2.Cols[ai][i]) {
					t.Fatalf("round trip changed row %d attr %d", i, ai)
				}
			}
		}
	})
}
