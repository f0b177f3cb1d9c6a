package replay

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// stamped is a sample whose CPUTotal carries its time, so a read
// identifies which sample the cursor is on.
func stamped(t simclock.Time, label metrics.Label) metrics.Sample {
	return metrics.Sample{Time: t, Values: vecWith(metrics.CPUTotal, float64(t)), Label: label}
}

func newAppendable(t *testing.T, ids ...substrate.VMID) *Substrate {
	t.Helper()
	s, err := NewAppendable(ids, Config{MigrationSecondsFn: func(float64) int64 { return 3 }})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendOutOfOrder(t *testing.T) {
	s := newAppendable(t, "vm1")
	if err := s.Append("vm1", stamped(10, metrics.LabelNormal)); err != nil {
		t.Fatal(err)
	}
	err := s.Append("vm1", stamped(5, metrics.LabelNormal))
	if err == nil || errors.Is(err, substrate.ErrNoSuchVM) {
		t.Fatalf("out-of-order append error = %v, want an ordering error", err)
	}
	if err := s.Append("vm1", stamped(10, metrics.LabelAbnormal)); err != nil {
		t.Fatalf("append at the same instant: %v", err)
	}
	if lt, ok := s.LastTime("vm1"); lt != 10 || !ok {
		t.Errorf("LastTime = %v, %v; want 10, true", lt, ok)
	}
	// Both samples at 10 are read through; the later one wins.
	s.Advance(10)
	if l, _ := s.Label("vm1"); l != metrics.LabelAbnormal {
		t.Errorf("label at 10 = %v, want abnormal", l)
	}
}

func TestAppendAtOrBeforeCursor(t *testing.T) {
	s := newAppendable(t, "vm1")
	if err := s.Append("vm1", stamped(0, metrics.LabelNormal)); err != nil {
		t.Fatal(err)
	}
	s.Advance(10)
	for _, at := range []simclock.Time{9, 10} {
		if err := s.Append("vm1", stamped(at, metrics.LabelNormal)); err == nil {
			t.Errorf("append at %v with the cursor at 10 succeeded", at)
		}
	}
	if lt, _ := s.LastTime("vm1"); lt != 0 {
		t.Errorf("refused appends moved LastTime to %v", lt)
	}
	if err := s.Append("vm1", stamped(11, metrics.LabelNormal)); err != nil {
		t.Errorf("append after the cursor: %v", err)
	}

	// A first Advance to time zero is a read of instant zero too.
	z := newAppendable(t, "vm1")
	z.Advance(0)
	if err := z.Append("vm1", stamped(0, metrics.LabelNormal)); err == nil {
		t.Error("append at 0 after Advance(0) succeeded")
	}
}

func TestAppendableErrors(t *testing.T) {
	s := newAppendable(t, "vm1", "vm2")
	for name, err := range map[string]error{
		"Append":    s.Append("ghost", stamped(1, metrics.LabelNormal)),
		"Sample":    second(s.Sample("ghost")),
		"Label":     second(s.Label("ghost")),
		"ScaleCPU":  s.ScaleCPU(0, "ghost", 1),
		"ScaleMem":  s.ScaleMem(0, "ghost", 1),
		"Migrate":   s.Migrate(0, "ghost", 1, 1),
		"Migrating": second(s.Migrating("ghost")),
	} {
		if !errors.Is(err, substrate.ErrNoSuchVM) {
			t.Errorf("%s on an unknown VM: %v, want ErrNoSuchVM", name, err)
		}
	}
	if _, ok := s.LastTime("ghost"); ok {
		t.Error("LastTime knows an unknown VM")
	}

	// Reads before the first append are a transient gap.
	for name, err := range map[string]error{
		"Sample": second(s.Sample("vm1")),
		"Label":  second(s.Label("vm1")),
	} {
		if !errors.Is(err, ErrNoSample) || !errors.Is(err, substrate.ErrUnavailable) {
			t.Errorf("%s before the first append: %v, want ErrNoSample (transient)", name, err)
		}
	}
	if lt, ok := s.LastTime("vm1"); lt != -1 || !ok {
		t.Errorf("LastTime before the first append = %v, %v; want -1, true", lt, ok)
	}
	if err := s.Append("vm1", stamped(5, metrics.LabelNormal)); err != nil {
		t.Fatal(err)
	}
	if got := s.MinLastTime(); got != -1 {
		t.Errorf("MinLastTime with vm2 silent = %v, want -1", got)
	}
	if err := s.Append("vm2", stamped(3, metrics.LabelNormal)); err != nil {
		t.Fatal(err)
	}
	if got := s.MinLastTime(); got != 3 {
		t.Errorf("MinLastTime = %v, want 3", got)
	}

	fixed, err := New(map[substrate.VMID][]metrics.Sample{"vm1": {stamped(0, metrics.LabelNormal)}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fixed.Append("vm1", stamped(1, metrics.LabelNormal)); err == nil {
		t.Error("append to a fixed-trace substrate succeeded")
	}
}

func second[T any](_ T, err error) error { return err }

// TestReadsSurviveTrims pushes each VM far past the trim threshold,
// with samples appended ahead of the cursor, and checks every read
// against the sample that must be current.
func TestReadsSurviveTrims(t *testing.T) {
	ids := []substrate.VMID{"vm1", "vm2", "vm3"}
	s := newAppendable(t, ids...)
	const ahead, n = 40, 2000
	appended := simclock.Time(0)
	appendTo := func(end simclock.Time) {
		for ; appended <= end; appended++ {
			label := metrics.LabelNormal
			if appended%7 == 0 {
				label = metrics.LabelAbnormal
			}
			for _, id := range ids {
				if err := s.Append(id, stamped(appended, label)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for now := simclock.Time(0); now < n; now++ {
		appendTo(now + ahead)
		s.Advance(now)
		for _, id := range ids {
			v, err := s.Sample(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := simclock.Time(v.Get(metrics.CPUTotal)); got != now {
				t.Fatalf("%s at %v reads the sample of %v", id, now, got)
			}
			l, _ := s.Label(id)
			if want := now%7 == 0; (l == metrics.LabelAbnormal) != want {
				t.Fatalf("%s at %v: label %v", id, now, l)
			}
			if lt, _ := s.LastTime(id); lt != now+ahead {
				t.Fatalf("%s at %v: LastTime %v, want %v", id, now, lt, now+ahead)
			}
		}
	}
	if got := s.End(); got != n-1+ahead {
		t.Errorf("End = %v, want %v", got, n-1+ahead)
	}
}

func TestRepeatedAdvanceIsIdempotent(t *testing.T) {
	s := newAppendable(t, "vm1", "vm2")
	app, err := NewApp(s)
	if err != nil {
		t.Fatal(err)
	}
	for at := simclock.Time(0); at <= 200; at += 5 {
		for _, id := range []substrate.VMID{"vm1", "vm2"} {
			if err := s.Append(id, stamped(at, metrics.Label(at/5%2))); err != nil {
				t.Fatal(err)
			}
		}
	}
	type view struct {
		cpu1, cpu2 float64
		violated   bool
		metric     float64
		min        simclock.Time
	}
	look := func() view {
		v1, _ := s.Sample("vm1")
		v2, _ := s.Sample("vm2")
		return view{v1.Get(metrics.CPUTotal), v2.Get(metrics.CPUTotal), app.SLOViolated(), app.SLOMetric(), s.MinLastTime()}
	}
	for now := simclock.Time(0); now <= 200; now++ {
		s.Advance(now)
		first := look()
		s.Advance(now)
		if again := look(); again != first {
			t.Fatalf("second Advance(%v) changed %+v to %+v", now, first, again)
		}
	}
}

func TestMigrationExpiresUnderRepeatedAdvance(t *testing.T) {
	s := newAppendable(t, "vm1")
	s.Advance(20)
	if err := s.Migrate(20, "vm1", 150, 896); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		now  simclock.Time
		want bool
	}{{20, true}, {20, true}, {22, true}, {22, true}, {23, false}, {23, false}} {
		s.Advance(tt.now)
		if mig, _ := s.Migrating("vm1"); mig != tt.want {
			t.Errorf("Migrating after Advance(%v) = %v, want %v", tt.now, mig, tt.want)
		}
	}

	// A zero-length migration lands on the next Advance, even a
	// repeated one at the same instant.
	z, err := NewAppendable([]substrate.VMID{"vm1"}, Config{MigrationSecondsFn: func(float64) int64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	z.Advance(20)
	if err := z.Migrate(20, "vm1", 150, 896); err != nil {
		t.Fatal(err)
	}
	if mig, _ := z.Migrating("vm1"); !mig {
		t.Error("migration not in flight before the next Advance")
	}
	z.Advance(20)
	if mig, _ := z.Migrating("vm1"); mig {
		t.Error("zero-length migration still in flight after a repeated Advance")
	}
}

func TestLastTime(t *testing.T) {
	series := flatSeries([]int64{0, 5, 10}, 1, metrics.LabelNormal)
	var buf bytes.Buffer
	if err := metrics.WriteSamplesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := FromCSV(map[substrate.VMID]io.Reader{"vm1": &buf}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := New(map[substrate.VMID][]metrics.Sample{
		"vm1": series,
		"vm2": flatSeries([]int64{0, 7}, 1, metrics.LabelNormal),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := newAppendable(t, "vm1")
	fed := newAppendable(t, "vm1")
	if err := fed.Append("vm1", stamped(4, metrics.LabelNormal)); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		sub  *Substrate
		id   substrate.VMID
		want simclock.Time
		ok   bool
		min  simclock.Time
	}{
		{"New", fixed, "vm1", 10, true, 7},
		{"New/other VM", fixed, "vm2", 7, true, 7},
		{"New/unknown VM", fixed, "ghost", -1, false, 7},
		{"FromCSV", fromCSV, "vm1", 10, true, 10},
		{"NewAppendable/empty", fresh, "vm1", -1, true, -1},
		{"NewAppendable/appended", fed, "vm1", 4, true, 4},
		{"NewAppendable/unknown VM", fed, "ghost", -1, false, 4},
	} {
		if got, ok := tt.sub.LastTime(tt.id); got != tt.want || ok != tt.ok {
			t.Errorf("%s: LastTime(%q) = %v, %v; want %v, %v", tt.name, tt.id, got, ok, tt.want, tt.ok)
		}
		if got := tt.sub.MinLastTime(); got != tt.min {
			t.Errorf("%s: MinLastTime = %v, want %v", tt.name, got, tt.min)
		}
	}
}

// TestAppendableSteadyStateAllocs pins the ingest hot path: once every
// VM's series has grown to its working size, appending an instant,
// advancing to it second by second and reading it back allocate
// nothing, and the in-place trim keeps each series' capacity bounded.
func TestAppendableSteadyStateAllocs(t *testing.T) {
	ids := []substrate.VMID{"vm1", "vm2", "vm3", "vm4"}
	s := newAppendable(t, ids...)
	const every = 5
	at := simclock.Time(0)
	step := func() {
		at += every
		for _, id := range ids {
			if err := s.Append(id, stamped(at, metrics.LabelNormal)); err != nil {
				t.Fatal(err)
			}
		}
		for now := at - every + 1; now <= at; now++ {
			s.Advance(now)
		}
		for _, id := range ids {
			if _, err := s.Sample(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4*trimAfter; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady-state append+advance+sample allocates %v per instant, want 0", allocs)
	}
	for i := 0; i < 10_000; i++ {
		step()
	}
	// The series reaches trimAfter+2 samples (the cursor one past the
	// threshold plus the sample it stands on) before the trim; growth
	// may double that once, never more.
	for k := range s.slots {
		if c, bound := cap(s.slots[k].series), 2*(trimAfter+2); c > bound {
			t.Errorf("%s: series capacity %d after 10k samples, want <= %d", s.vmIDs[k], c, bound)
		}
	}
}
