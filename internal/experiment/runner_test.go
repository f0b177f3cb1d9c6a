package experiment

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"prepare/internal/control"
	"prepare/internal/faults"
	"prepare/internal/pool"
	"prepare/internal/prevent"
)

// The three ForEach tests below are the part of the pool's behavioural
// suite internal/pool/pool_test.go does not repeat: the concurrency
// bound, error-triggered cancellation, and the empty batch.

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	err := pool.Runner{Workers: workers}.ForEach(context.Background(), 40, func(_ context.Context, i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestForEachCancelsRemainingTasks(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := pool.Runner{Workers: 2}.ForEach(context.Background(), 1000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Worker pull loops stop at the first cancelled check, so far fewer
	// than all 1000 tasks start.
	if n := ran.Load(); n >= 1000 {
		t.Errorf("ran %d tasks, expected early cancellation", n)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	called := false
	if err := (pool.Runner{}).ForEach(context.Background(), 0, func(_ context.Context, i int) error {
		called = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for n=0")
	}
}

func TestRunAllMatchesSerialRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs in -short mode")
	}
	scenarios := []Scenario{
		{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemePREPARE, Seed: 7},
		{App: SystemS, Fault: faults.CPUHog, Scheme: control.SchemeReactive, Seed: 8},
		{App: RUBiS, Fault: faults.Bottleneck, Scheme: control.SchemeNone, Seed: 9},
		{App: SystemS, Fault: faults.MemoryLeak, Scheme: control.SchemePREPARE, Seed: 10,
			Policy: prevent.MigrationOnly},
	}
	batch, err := RunAll(scenarios, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(scenarios) {
		t.Fatalf("got %d results, want %d", len(batch), len(scenarios))
	}
	for i, sc := range scenarios {
		serial, err := Run(sc)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		if batch[i].EvalViolationSeconds != serial.EvalViolationSeconds {
			t.Errorf("scenario %d: batch violation %d != serial %d",
				i, batch[i].EvalViolationSeconds, serial.EvalViolationSeconds)
		}
		if len(batch[i].Trace) != len(serial.Trace) {
			t.Errorf("scenario %d: trace length %d != %d", i, len(batch[i].Trace), len(serial.Trace))
			continue
		}
		for j := range serial.Trace {
			if batch[i].Trace[j] != serial.Trace[j] {
				t.Errorf("scenario %d: trace[%d] = %+v != %+v",
					i, j, batch[i].Trace[j], serial.Trace[j])
				break
			}
		}
	}
}

func TestRunAllErrorNamesScenario(t *testing.T) {
	scenarios := []Scenario{
		{App: RUBiS, Fault: faults.MemoryLeak, Scheme: control.SchemeNone, Seed: 1},
		{App: AppKind(99), Seed: 2},
	}
	_, err := RunAll(scenarios, BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("expected error for invalid scenario")
	}
	if want := "scenario 1"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("err = %q, want it to contain %q", err, want)
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the bit-identical
// guarantee: exported CSV and SVG artifacts of a full figure sweep must
// be byte-identical with 1 and 8 workers. Run it under -race to also
// exercise the pool for data races.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps in -short mode")
	}
	render := func(workers int) (string, string) {
		defer pool.SetDefaultWorkers(0)
		pool.SetDefaultWorkers(workers)
		cells, err := FigureSLOViolation(prevent.ScalingFirst, 2, 42)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var csv, svg bytes.Buffer
		if err := WriteViolationCSV(&csv, cells); err != nil {
			t.Fatal(err)
		}
		if err := WriteViolationSVG(&svg, "fig6", cells); err != nil {
			t.Fatal(err)
		}
		return csv.String(), svg.String()
	}
	csv1, svg1 := render(1)
	csv8, svg8 := render(8)
	if csv1 != csv8 {
		t.Errorf("CSV differs between workers=1 and workers=8:\n--- 1:\n%s\n--- 8:\n%s", csv1, csv8)
	}
	if svg1 != svg8 {
		t.Error("SVG differs between workers=1 and workers=8")
	}
}

func TestAccuracySweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset collection in -short mode")
	}
	ds, err := CollectDataset(Scenario{App: RUBiS, Fault: faults.Bottleneck, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(workers int) []AccuracyPoint {
		defer pool.SetDefaultWorkers(0)
		pool.SetDefaultWorkers(workers)
		pts, err := AccuracySweep(ds, []int64{10, 20, 30}, AccuracyOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	serial := sweep(1)
	parallel := sweep(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: workers=1 %+v != workers=8 %+v", i, serial[i], parallel[i])
		}
	}
}
