package wire

import (
	"encoding/json"
	"fmt"
	"testing"

	"prepare/internal/metrics"
)

// BenchmarkIngestDecode measures the binary batch decode hot path —
// one 512-row frame into a reused Arena — and reports ingest
// samples/sec. TestDecodeSteadyStateZeroAlloc pins the decode at 0 allocs.
func BenchmarkIngestDecode(bm *testing.B) {
	var b Batch
	buildBatchBench(&b, 8, 512)
	frame, err := AppendBatch(nil, &b)
	if err != nil {
		bm.Fatal(err)
	}
	payload, err := Payload(frame)
	if err != nil {
		bm.Fatal(err)
	}
	var a Arena
	if _, err := DecodeBatch(payload, &a); err != nil {
		bm.Fatal(err)
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if _, err := DecodeBatch(payload, &a); err != nil {
			bm.Fatal(err)
		}
	}
	bm.StopTimer()
	bm.ReportMetric(float64(b.Rows())*float64(bm.N)/bm.Elapsed().Seconds(), "samples/sec")
}

// jsonSample mirrors the server's JSON ingest schema so the comparison
// below measures exactly what the HTTP/JSON path pays per sample.
type jsonSample struct {
	VM     string    `json:"vm"`
	TimeS  int64     `json:"time_s"`
	Label  int       `json:"label,omitempty"`
	Values []float64 `json:"values"`
}

type jsonBatch struct {
	Tenant  string       `json:"tenant"`
	Samples []jsonSample `json:"samples"`
}

// BenchmarkIngestDecodeJSON decodes the same 512-row batch through
// encoding/json — the baseline the binary format replaces. Reported
// for the README comparison table; not gated.
func BenchmarkIngestDecodeJSON(bm *testing.B) {
	var b Batch
	buildBatchBench(&b, 8, 512)
	jb := jsonBatch{Tenant: "bench-tenant"}
	for i := 0; i < b.Rows(); i++ {
		vals := make([]float64, metrics.NumAttributes)
		for a := range b.Cols {
			vals[a] = b.Cols[a][i]
		}
		jb.Samples = append(jb.Samples, jsonSample{
			VM:     string(b.VMs[b.VMIdx[i]]),
			TimeS:  b.Times[i],
			Label:  int(b.Labels[i]),
			Values: vals,
		})
	}
	body, err := json.Marshal(jb)
	if err != nil {
		bm.Fatal(err)
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		var got jsonBatch
		if err := json.Unmarshal(body, &got); err != nil {
			bm.Fatal(err)
		}
	}
	bm.StopTimer()
	bm.ReportMetric(float64(len(jb.Samples))*float64(bm.N)/bm.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkIngestEncode measures AppendBatch into a reused buffer.
func BenchmarkIngestEncode(bm *testing.B) {
	var b Batch
	buildBatchBench(&b, 8, 512)
	buf, err := AppendBatch(nil, &b)
	if err != nil {
		bm.Fatal(err)
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		buf, err = AppendBatch(buf[:0], &b)
		if err != nil {
			bm.Fatal(err)
		}
	}
	bm.StopTimer()
	bm.ReportMetric(float64(b.Rows())*float64(bm.N)/bm.Elapsed().Seconds(), "samples/sec")
}

func buildBatchBench(b *Batch, nVMs, n int) {
	b.Reset([]byte("bench-tenant"))
	for v := 0; v < nVMs; v++ {
		b.AddVM([]byte(fmt.Sprintf("vm-%02d", v)))
	}
	var vals [metrics.NumAttributes]float64
	t := int64(1000)
	for i := 0; i < n; i++ {
		if i > 0 && i%nVMs == 0 {
			t += 5
		}
		for a := range vals {
			vals[a] = float64(i*31+a*7) * 0.125
		}
		b.Add(i%nVMs, t, metrics.LabelNormal, vals[:])
	}
}
