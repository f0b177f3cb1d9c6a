package predict

import (
	"fmt"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
)

// benchmarkDetectorFleet measures the scalar per-VM detector hot path —
// one Observe+Score per VM per simulated tick — for a fleet of
// independently trained detectors. It reports vm-steps/sec so the CI
// regression gate tracks throughput alongside allocs/op.
func benchmarkDetectorFleet(b *testing.B, spec detector.Spec, vms int) {
	names := AttributeNames()
	dims := len(names)
	opts := DetectorOptions{
		Names:           names,
		Config:          Config{},
		LookbackSamples: 24,
		Seed:            1,
	}

	mkRows := func() ([][]float64, []metrics.Label) {
		rows := make([][]float64, 240)
		labels := make([]metrics.Label, len(rows))
		for i := range rows {
			rows[i] = make([]float64, dims)
			for j := range rows[i] {
				rows[i][j] = 20 + float64((i+2*j)%7)
			}
			labels[i] = metrics.LabelNormal
			if i >= len(rows)-30 {
				// A trailing anomalous span so the TAN classifier has
				// both classes; unsupervised kinds ignore the labels.
				rows[i][2] += float64(i) * 2
				labels[i] = metrics.LabelAbnormal
			}
		}
		return rows, labels
	}

	dets := make([]detector.Detector, vms)
	for i := range dets {
		d, err := NewDetector(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		rows, labels := mkRows() // Train relabels in place: fresh copies
		if err := d.Train(rows, labels); err != nil {
			b.Fatal(err)
		}
		dets[i] = d
	}

	row := make([]float64, dims)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range row {
			row[j] = 20 + float64((i+2*j)%7)
		}
		for _, d := range dets {
			if err := d.Observe(row); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Score(120); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(vms)*float64(b.N)/b.Elapsed().Seconds(), "vm-steps/sec")
}

// BenchmarkDetectorFleetTick is the PR8 baseline set: the supervised
// TAN adapter, the EWMA forecast-error detector, and the strict-
// majority ensemble of the two, each at 1k VMs (and 10k without
// -short). The standing benchmark (BENCHMARK.json, benchmark/README.md)
// measures the same detectors end to end as fleet_tan and fleet_ewma.
func BenchmarkDetectorFleetTick(b *testing.B) {
	specs := []detector.Spec{
		{Kind: detector.KindTAN},
		{Kind: detector.KindEWMA},
		{Kind: detector.KindEnsemble, Members: []string{detector.KindTAN, detector.KindEWMA}},
	}
	for _, spec := range specs {
		for _, vms := range []int{1000, 10000} {
			if vms > 1000 && testing.Short() {
				continue
			}
			b.Run(fmt.Sprintf("%s/%dk", spec, vms/1000), func(b *testing.B) {
				benchmarkDetectorFleet(b, spec, vms)
			})
		}
	}
}
