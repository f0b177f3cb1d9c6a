package columnar_test

import (
	"slices"
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
	if s.VMs() != nVMs || s.Ticks() != 0 {
		t.Fatalf("fresh store shape: %d VMs, %d ticks", s.VMs(), s.Ticks())
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
	hist := s.Samples(0)
	for back := 0; back < window; back++ {
		tick := 6 - back
		if got := s.Time(back); got != simclock.Time(100+tick) {
			t.Fatalf("Time(%d) = %v, want %v", back, got, 100+tick)
		}
		wantLbl := metrics.LabelNormal
		if tick%2 == 1 {
			wantLbl = metrics.LabelAbnormal
		}
		if got := hist[window-1-back].Label; got != wantLbl {
			t.Fatalf("label back %d = %v, want %v", back, got, wantLbl)
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

// fill commits ticks [from, to) of vecFor rows at times 5*tick, leaving
// VM vm's row unrecorded on the ticks skip reports.
func fill(s *columnar.Store, from, to int, skip func(vm, tick int) bool) {
	for tick := from; tick < to; tick++ {
		for vm := 0; vm < s.VMs(); vm++ {
			v := vecFor(vm, tick)
			s.StageRow(vm, &v)
			if skip(vm, tick) {
				s.Unrecord(vm)
			}
		}
		s.Commit(simclock.Time(5*tick), metrics.Label(tick%3))
	}
}

// TestStoreRowsInto: a wrapped ring gathers one VM's recorded rows,
// oldest first, with their ticks' labels, in capacity-capped rows, and
// a second gather into the returned buffers allocates nothing.
func TestStoreRowsInto(t *testing.T) {
	s, err := columnar.New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Ticks 3..7 stay; VM 1 is unrecorded on the odd ones.
	fill(s, 0, 8, func(vm, tick int) bool { return vm == 1 && tick%2 == 1 })
	backing, rows, labels := s.RowsInto(1, nil, nil, nil)
	wantTicks := []int{4, 6}
	if len(rows) != len(wantTicks) || len(labels) != len(wantTicks) {
		t.Fatalf("RowsInto gave %d rows and %d labels, want %d", len(rows), len(labels), len(wantTicks))
	}
	for i, tick := range wantTicks {
		if len(rows[i]) != metrics.NumAttributes || cap(rows[i]) != metrics.NumAttributes {
			t.Errorf("row %d has len %d cap %d, want %d", i, len(rows[i]), cap(rows[i]), metrics.NumAttributes)
		}
		want := vecFor(1, tick)
		for a, v := range want {
			if rows[i][a] != v {
				t.Errorf("row %d attr %d = %v, want %v", i, a, rows[i][a], v)
			}
		}
		if labels[i] != metrics.Label(tick%3) {
			t.Errorf("label %d = %v, want %v", i, labels[i], metrics.Label(tick%3))
		}
	}
	if _, rows, _ := s.RowsInto(0, backing, rows, labels); len(rows) != 5 {
		t.Errorf("VM 0 has %d recorded rows, want the 5-tick window", len(rows))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		backing, rows, labels = s.RowsInto(2, backing, rows, labels)
	}); allocs != 0 {
		t.Errorf("RowsInto into warm buffers allocates %v/op, want 0", allocs)
	}
}

// TestStoreValuesInto: the attribute range is half-open, oldest first,
// and skips unrecorded rows.
func TestStoreValuesInto(t *testing.T) {
	s, err := columnar.NewGrowing(2)
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 0, 10, func(vm, tick int) bool { return vm == 0 && tick == 4 })
	got := s.ValuesInto(nil, 0, metrics.FreeMem, 10, 30) // ticks 2..5
	var want []float64
	for _, tick := range []int{2, 3, 5} {
		want = append(want, vecFor(0, tick).Get(metrics.FreeMem))
	}
	if !slices.Equal(got, want) {
		t.Errorf("ValuesInto(10, 30) = %v, want %v", got, want)
	}
	if got := s.ValuesInto(got, 1, metrics.FreeMem, 10, 30); len(got) != 4 {
		t.Errorf("VM 1 has %d values in [10, 30), want 4", len(got))
	}
}

func TestStoreSamplesIsCopy(t *testing.T) {
	s, err := columnar.New(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 0, 1, func(int, int) bool { return false })
	all := s.Samples(0)
	if len(all) != 1 || all[0].Time != 0 || all[0].Values != vecFor(0, 0) {
		t.Fatalf("Samples = %+v", all)
	}
	all[0].Values.Set(metrics.CPUTotal, 999)
	if s.Latest(0, metrics.CPUTotal) == 999 {
		t.Error("Samples must return a copy")
	}
}

// TestGrowingStoreKeepsEveryTick: a growing store never evicts, its
// history surviving each doubling.
func TestGrowingStoreKeepsEveryTick(t *testing.T) {
	s, err := columnar.NewGrowing(2)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 1100 // two doublings from 512
	fill(s, 0, ticks, func(vm, tick int) bool { return false })
	if s.Ticks() != ticks {
		t.Fatalf("store holds %d ticks, want %d", s.Ticks(), ticks)
	}
	all := s.Samples(1)
	for tick, sm := range all {
		if sm.Time != simclock.Time(5*tick) || sm.Values != vecFor(1, tick) {
			t.Fatalf("sample %d = t%v %v, want tick %d", tick, sm.Time, sm.Values, tick)
		}
	}
}

// FuzzStoreHistory runs commit sequences with random recorded flags
// through a bounded (window 1..8) or growing (window 0) store and
// compares every history read against an append-only reference.
func FuzzStoreHistory(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint16(600), []byte{0x11, 0x2f, 0x03})
	f.Add(uint8(3), uint8(1), uint16(40), []byte{0x00})
	f.Add(uint8(8), uint8(3), uint16(1100), []byte{0xff, 0x10, 0x7c, 0x01, 0x44})
	f.Add(uint8(1), uint8(4), uint16(9), []byte{})
	f.Fuzz(func(t *testing.T, window, vms uint8, ticks uint16, script []byte) {
		nVMs, nTicks := 1+int(vms%4), int(ticks%1300)
		var (
			s   *columnar.Store
			err error
		)
		if window %= 9; window == 0 {
			s, err = columnar.NewGrowing(nVMs)
		} else {
			s, err = columnar.New(nVMs, int(window))
		}
		if err != nil {
			t.Fatal(err)
		}
		// byteAt reads the script cyclically (0 when it is empty).
		byteAt := func(i int) byte {
			if len(script) == 0 {
				return 0
			}
			return script[i%len(script)]
		}
		type entry struct {
			time     simclock.Time
			label    metrics.Label
			recorded []bool
		}
		var ref []entry
		now := simclock.Time(0)
		for tick := 0; tick < nTicks; tick++ {
			b := byteAt(tick)
			now = now.Add(int64(b >> 6)) // 0..3 s later: equal times too
			e := entry{time: now, label: metrics.Label(b % 3), recorded: make([]bool, nVMs)}
			for vm := 0; vm < nVMs; vm++ {
				v := vecFor(vm, tick)
				s.StageRow(vm, &v)
				if e.recorded[vm] = byteAt(tick*nVMs+vm+1)&(1<<uint(vm)) == 0; !e.recorded[vm] {
					s.Unrecord(vm)
				}
			}
			s.Commit(now, e.label)
			ref = append(ref, e)

			row := make([]float64, metrics.NumAttributes)
			for vm := 0; vm < nVMs; vm++ {
				s.RowInto(vm, row)
				want := vecFor(vm, tick)
				if !slices.Equal(row, want[:]) {
					t.Fatalf("tick %d vm %d: RowInto = %v, want %v", tick, vm, row, want)
				}
				if got := s.Latest(vm, metrics.Load5); got != want.Get(metrics.Load5) {
					t.Fatalf("tick %d vm %d: Latest = %v, want %v", tick, vm, got, want.Get(metrics.Load5))
				}
			}
			if tick%97 != 0 && tick != nTicks-1 {
				continue
			}
			held := ref
			if window > 0 && len(held) > int(window) {
				held = held[len(held)-int(window):]
			}
			if s.Ticks() != len(held) {
				t.Fatalf("tick %d: store holds %d ticks, reference %d", tick, s.Ticks(), len(held))
			}
			first := len(ref) - len(held) // tick index of held[0]
			from := held[0].time.Add(int64(byteAt(tick+2) % 8))
			to := from.Add(int64(byteAt(tick+3) % 32))
			for vm := 0; vm < nVMs; vm++ {
				var wantRows [][]float64
				var wantLabels []metrics.Label
				var wantValues []float64
				var wantSamples []metrics.Sample
				for k, e := range held {
					if !e.recorded[vm] {
						continue
					}
					v := vecFor(vm, first+k)
					wantRows = append(wantRows, v[:])
					wantLabels = append(wantLabels, e.label)
					wantSamples = append(wantSamples, metrics.Sample{Time: e.time, Values: v, Label: e.label})
					if !e.time.Before(from) && e.time.Before(to) {
						wantValues = append(wantValues, v.Get(metrics.DiskRead))
					}
				}
				_, rows, labels := s.RowsInto(vm, nil, nil, nil)
				if !slices.EqualFunc(rows, wantRows, slices.Equal) || !slices.Equal(labels, wantLabels) {
					t.Fatalf("tick %d vm %d: RowsInto = %v/%v, want %v/%v", tick, vm, rows, labels, wantRows, wantLabels)
				}
				if got := s.ValuesInto(nil, vm, metrics.DiskRead, from, to); !slices.Equal(got, wantValues) {
					t.Fatalf("tick %d vm %d: ValuesInto(%v, %v) = %v, want %v", tick, vm, from, to, got, wantValues)
				}
				if got := s.Samples(vm); !slices.Equal(got, wantSamples) {
					t.Fatalf("tick %d vm %d: Samples = %v, want %v", tick, vm, got, wantSamples)
				}
				if got := s.Recorded(0, vm); got != held[len(held)-1].recorded[vm] {
					t.Fatalf("tick %d vm %d: Recorded = %v, want %v", tick, vm, got, !got)
				}
			}
		}
	})
}
