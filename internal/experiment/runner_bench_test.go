package experiment

import (
	"context"
	"fmt"
	"testing"

	"prepare/internal/control"
	"prepare/internal/faults"
	"prepare/internal/pool"
)

// spin is a deterministic CPU-bound task standing in for one scenario
// run, so the pool's scaling can be measured without simulator noise.
func spin(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + float64(i%7)
	}
	return x
}

var spinSink float64

// BenchmarkForEach measures the worker pool fanning 32 CPU-bound tasks
// out over 1, 4, and 8 workers. On a multi-core machine ns/op shrinks
// roughly linearly until workers exceed cores; on one core all worker
// counts cost the same, which is the pool's overhead bound.
func BenchmarkForEach(b *testing.B) {
	const tasks = 32
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sums := make([]float64, tasks)
			r := pool.Runner{Workers: workers}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := r.ForEach(context.Background(), tasks, func(_ context.Context, i int) error {
					sums[i] = spin(20000)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			spinSink = sums[0]
		})
	}
}

// BenchmarkRunAllScenarios runs a real 4-scenario batch through the
// pool — the end-to-end cost a figure sweep cell pays.
func BenchmarkRunAllScenarios(b *testing.B) {
	scenarios := []Scenario{
		{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemeNone, Seed: 1},
		{App: RUBiS, Fault: faults.CPUHog, Scheme: control.SchemeNone, Seed: 2},
		{App: SystemS, Fault: faults.MemoryLeak, Scheme: control.SchemeNone, Seed: 3},
		{App: SystemS, Fault: faults.CPUHog, Scheme: control.SchemeNone, Seed: 4},
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := RunAll(scenarios, BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
