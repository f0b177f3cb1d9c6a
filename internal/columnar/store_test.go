package columnar_test

import (
	"testing"

	"prepare/internal/columnar"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

func vecFor(vm, tick int) metrics.Vector {
	var v metrics.Vector
	for a := range v {
		v[a] = float64(1000*tick + 10*vm + a)
	}
	return v
}

func TestStoreRoundTrip(t *testing.T) {
	const nVMs, window = 3, 4
	s, err := columnar.New(nVMs, window)
	if err != nil {
		t.Fatal(err)
	}
	if s.VMs() != nVMs || s.Window() != window || s.Ticks() != 0 {
		t.Fatalf("fresh store shape: %d VMs, window %d, %d ticks", s.VMs(), s.Window(), s.Ticks())
	}
	// Commit more ticks than the window holds to exercise eviction.
	for tick := 0; tick < 7; tick++ {
		for vm := 0; vm < nVMs; vm++ {
			v := vecFor(vm, tick)
			s.StageRow(vm, &v)
		}
		lbl := metrics.LabelNormal
		if tick%2 == 1 {
			lbl = metrics.LabelAbnormal
		}
		s.Commit(simclock.Time(100+tick), lbl)

		want := window
		if tick+1 < window {
			want = tick + 1
		}
		if s.Ticks() != want {
			t.Fatalf("after tick %d: %d ticks, want %d", tick, s.Ticks(), want)
		}
		// Latest tick must read back exactly.
		row := make([]float64, metrics.NumAttributes)
		for vm := 0; vm < nVMs; vm++ {
			s.RowInto(vm, row)
			wantV := vecFor(vm, tick)
			for a := range row {
				if row[a] != wantV[a] {
					t.Fatalf("tick %d vm %d attr %d: got %v want %v", tick, vm, a, row[a], wantV[a])
				}
			}
		}
	}
	// History: back=0..3 map onto ticks 6..3.
	for back := 0; back < window; back++ {
		tick := 6 - back
		if got := s.Time(back); got != simclock.Time(100+tick) {
			t.Fatalf("Time(%d) = %v, want %v", back, got, 100+tick)
		}
		wantLbl := metrics.LabelNormal
		if tick%2 == 1 {
			wantLbl = metrics.LabelAbnormal
		}
		if got := s.Label(back); got != wantLbl {
			t.Fatalf("Label(%d) = %v, want %v", back, got, wantLbl)
		}
		col := s.ColumnAt(back, metrics.NetIn)
		for vm := range col {
			if want := vecFor(vm, tick).Get(metrics.NetIn); col[vm] != want {
				t.Fatalf("ColumnAt(%d) vm %d = %v, want %v", back, vm, col[vm], want)
			}
		}
	}
	if got, want := s.Latest(1, metrics.CPUTotal), vecFor(1, 6).Get(metrics.CPUTotal); got != want {
		t.Fatalf("Latest = %v, want %v", got, want)
	}
}

func TestStoreColumnIsContiguousPerTick(t *testing.T) {
	s, err := columnar.New(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for vm := 0; vm < 5; vm++ {
		var v metrics.Vector
		v.Set(metrics.Load1, float64(vm)*1.5)
		s.StageRow(vm, &v)
	}
	s.Commit(1, metrics.LabelNormal)
	col := s.Column(metrics.Load1)
	if len(col) != 5 {
		t.Fatalf("column length %d, want 5", len(col))
	}
	for vm, x := range col {
		if x != float64(vm)*1.5 {
			t.Fatalf("col[%d] = %v, want %v", vm, x, float64(vm)*1.5)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := columnar.New(0, 4); err == nil {
		t.Fatal("columnar.New(0, 4) must fail")
	}
	if _, err := columnar.New(4, 0); err == nil {
		t.Fatal("columnar.New(4, 0) must fail")
	}
	s, err := columnar.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	var v metrics.Vector
	mustPanic("StageRow out of range", func() { s.StageRow(2, &v) })
	mustPanic("RowInto before commit", func() { s.RowInto(0, make([]float64, metrics.NumAttributes)) })
	mustPanic("ColumnAt before commit", func() { _ = s.Column(metrics.NetIn) })
}

func TestStoreSteadyStateAllocFree(t *testing.T) {
	s, err := columnar.New(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	var v metrics.Vector
	row := make([]float64, metrics.NumAttributes)
	allocs := testing.AllocsPerRun(20, func() {
		for vm := 0; vm < 64; vm++ {
			s.StageRow(vm, &v)
		}
		s.Commit(1, metrics.LabelNormal)
		for vm := 0; vm < 64; vm++ {
			s.RowInto(vm, row)
		}
		_ = s.Column(metrics.NetIn)
	})
	if allocs != 0 {
		t.Fatalf("steady-state stage/commit/read allocates %.1f/op, want 0", allocs)
	}
}
