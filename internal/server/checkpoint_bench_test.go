package server

import (
	"fmt"
	"io"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// Checkpoint benchmark topology: the served_paced shape, 16 tenants of
// 8 TAN VMs each that retrain every 600 s.
const (
	benchTenants   = 16
	benchGroupSize = 8
	benchRetrainS  = 600
)

// trainedBenchServer starts a server over the benchmark topology and
// feeds it until every tenant has trained.
func trainedBenchServer(tb testing.TB, reg *telemetry.Registry) *Server {
	tb.Helper()
	traces := make(map[string]map[substrate.VMID][]metrics.Sample, benchTenants)
	cfgs := make([]TenantConfig, 0, benchTenants)
	for g := 0; g < benchTenants; g++ {
		id := fmt.Sprintf("t%02d", g)
		seed := int64(100 + g)
		traces[id] = tenantTraces(id, benchGroupSize, seed)
		ctl := testControlConfig(seed, testTrainAt)
		ctl.RetrainIntervalS = benchRetrainS
		cfgs = append(cfgs, TenantConfig{ID: id, VMs: sortedVMs(traces[id]), Control: ctl})
	}
	s, err := New(cfgs, Config{Shards: 2, Telemetry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Start(); err != nil {
		tb.Fatal(err)
	}
	feed(tb, s, traces, 0, testTrainAt+5)
	return s
}

// BenchmarkCheckpoint times Server.Checkpoint over a trained 16×8 TAN
// topology. It reports the body size and the median barrier pause the
// server.checkpoint.pause_ms histogram recorded.
func BenchmarkCheckpoint(b *testing.B) {
	reg := telemetry.New(telemetry.Options{})
	s := trainedBenchServer(b, reg)
	defer s.Close()
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cw countingWriter
		if err := s.Checkpoint(&cw); err != nil {
			b.Fatal(err)
		}
		n = int(cw)
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "bytes/op")
	b.ReportMetric(reg.Snapshot().Histograms["server.checkpoint.pause_ms"].Quantile(0.5), "pause_ms_p50")
}

// countingWriter discards what it is written and counts the bytes.
type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)
