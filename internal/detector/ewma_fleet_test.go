package detector

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"prepare/internal/columnar"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

// fleetCase is one store window the fleet fit is checked on.
type fleetCase struct {
	name   string
	nVMs   int
	window int // ticks the ring keeps; 0 for a growing store
	ticks  int // ticks committed
	seed   int64
	// edge draws NaNs of two payloads, ±0, ±Inf and subnormals among
	// the values; silent leaves the VM of that lane without a recorded
	// row (-1 for none).
	edge   bool
	silent int
}

// fleetCases covers a ring before and after it wraps, a growing store
// past the 128 values the register sort takes, edge values, a fleet
// that is not a whole number of 8-VM blocks, and a VM without a
// recorded row.
var fleetCases = []fleetCase{
	{"ring-filling", 21, 128, 90, 1, false, -1},
	{"ring-wrapped", 37, 128, 300, 2, false, -1},
	{"ring-short", 16, 40, 97, 3, false, -1},
	{"growing", 19, 0, 200, 4, false, -1},
	{"edge-values", 29, 64, 150, 5, true, -1},
	{"edge-growing", 11, 0, 160, 6, true, -1},
	{"one-vm", 1, 128, 130, 7, false, -1},
	{"silent-vm", 26, 128, 140, 8, false, 19},
}

// buildFleetStore commits c.ticks ticks of c.nVMs VMs' rows into a
// fresh store. About one row in nine is left unrecorded, and VMs 8-15
// (a whole 8-VM line) on every fifth tick; ticks 30-69 of every 100 are
// labelled abnormal, and VM 2's rows are recorded on abnormal ticks
// only, so it has no normal row to fit its baseline on.
func buildFleetStore(tb testing.TB, c fleetCase) *columnar.Store {
	tb.Helper()
	var s *columnar.Store
	var err error
	if c.window > 0 {
		s, err = columnar.New(c.nVMs, c.window)
	} else {
		s, err = columnar.NewGrowing(c.nVMs)
	}
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(c.seed))
	edges := []float64{math.NaN(), math.Float64frombits(0xfff8000000000000), math.Copysign(0, -1), 0,
		math.Inf(1), math.Inf(-1), 5e-324}
	for k := 0; k < c.ticks; k++ {
		abnormal := k%100 >= 30 && k%100 < 70
		for vm := 0; vm < c.nVMs; vm++ {
			var v metrics.Vector
			for j := range v {
				v[j] = float64(10*vm+j) + 5*rng.NormFloat64()
				switch {
				case c.edge && rng.Intn(40) == 0:
					v[j] = edges[rng.Intn(len(edges))]
				case rng.Intn(50) == 0:
					v[j] = float64(vm) // ties
				}
			}
			s.StageRow(vm, &v)
			if rng.Intn(9) == 0 || (vm >= 8 && vm < 16 && k%5 == 0) || (vm == 2 && !abnormal) || vm == c.silent {
				s.Unrecord(vm)
			}
		}
		label := metrics.LabelNormal
		if abnormal {
			label = metrics.LabelAbnormal
		}
		s.Commit(simclock.Time(5*k), label)
	}
	return s
}

// fleetFit joins dets into one fleet and refits it from s's window the
// way the controller fans the fit out: contiguous ranges of
// FleetBlock-VM blocks, one per fit, each with its own working memory.
// It returns the first failing lane's error.
func fleetFit(s *columnar.Store, dets []*EWMA, fits []EWMAFleetFit) (int, error) {
	f, err := JoinEWMA(dets)
	if err != nil {
		return 0, err
	}
	n := len(dets)
	blocks := (n + FleetBlock - 1) / FleetBlock
	tasks := min(len(fits), blocks)
	for i := 0; i < tasks; i++ {
		lo, hi := min(FleetBlock*(i*blocks/tasks), n), min(FleetBlock*((i+1)*blocks/tasks), n)
		if lane, err := fits[i].Fit(s.Window(), f, lo, hi); err != nil {
			return lane, err
		}
	}
	return 0, nil
}

// checkFleetFit refits a fleet of detectors from s in tasks ranges and
// requires every VM's detector to snapshot to the bytes Train gives it
// from the VM's RowsInto rows, or the fit to fail on the VM Train
// refuses with Train's error. Every detector is first trained on other
// rows, so a field the fleet fit leaves alone shows.
func checkFleetFit(t *testing.T, s *columnar.Store, tasks int) {
	t.Helper()
	n := s.VMs()
	stale, staleLabels := ringSeries(50)
	dets := make([]*EWMA, n)
	for i := range dets {
		dets[i] = NewEWMA(metrics.NumAttributes, EWMAOptions{})
		if err := dets[i].Train(stale, staleLabels); err != nil {
			t.Fatal(err)
		}
	}
	lane, err := fleetFit(s, dets, make([]EWMAFleetFit, tasks))
	var backing []float64
	var rows [][]float64
	var labels []metrics.Label
	for vm := 0; vm < n; vm++ {
		backing, rows, labels = s.RowsInto(vm, backing, rows, labels)
		want := NewEWMA(metrics.NumAttributes, EWMAOptions{})
		if trainErr := want.Train(rows, labels); trainErr != nil {
			if err == nil || lane != vm || err.Error() != trainErr.Error() {
				t.Fatalf("%s, %d tasks: Train of VM %d fails with %v; the fleet fit gave lane %d, %v", laneKernel, tasks, vm, trainErr, lane, err)
			}
			return
		}
		if err != nil {
			continue
		}
		got, _ := dets[vm].AppendBinary(nil)
		wantB, _ := want.AppendBinary(nil)
		if !bytes.Equal(got, wantB) {
			t.Fatalf("%s, %d tasks, VM %d of %d (%d rows): the fleet fit gives\n%+v\nTrain gives\n%+v", laneKernel, tasks, vm, n, len(rows),
				dets[vm].snapshot(), want.snapshot())
		}
	}
	if err != nil {
		t.Fatalf("%s, %d tasks: the fleet fit fails on lane %d (%v), Train on no VM", laneKernel, tasks, lane, err)
	}
}

// TestFleetFitMatchesTrain is the fleet fit's exactness oracle: under
// each Holt kernel, split into 1 and 3 ranges, on every fleetCase, every
// VM's center, scale, scale0, level, trend and n have Train's bits.
func TestFleetFitMatchesTrain(t *testing.T) {
	eachLaneKernel(t, func(t *testing.T) {
		for _, c := range fleetCases {
			s := buildFleetStore(t, c)
			for _, tasks := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/tasks=%d", c.name, tasks), func(t *testing.T) {
					checkFleetFit(t, s, tasks)
				})
			}
		}
	})
}

// TestFleetFitRefusesMixedDetectors: detectors that disagree on
// smoothing or width are refused a fleet before any changes, and a
// fleet fit of a detector not over every attribute is refused.
func TestFleetFitRefusesMixedDetectors(t *testing.T) {
	dets := make([]*EWMA, 9)
	for i := range dets {
		dets[i] = NewEWMA(metrics.NumAttributes, EWMAOptions{})
	}
	dets[4] = NewEWMA(metrics.NumAttributes, EWMAOptions{Alpha: 0.5})
	if f, err := JoinEWMA(dets); err == nil || f != nil || !strings.Contains(err.Error(), "lane 4") {
		t.Errorf("JoinEWMA over a mixed range = %v, %v; want lane 4 refused", f, err)
	}
	if dets[0].f.stride != 1 || dets[0].f.dets[0] != dets[0] {
		t.Error("a refused join moved a detector")
	}
	dets[4] = NewEWMA(3, EWMAOptions{})
	if _, err := JoinEWMA(dets); err == nil {
		t.Error("JoinEWMA over a 3-attribute detector succeeded")
	}
	s := buildFleetStore(t, fleetCase{"", 1, 16, 20, 9, false, -1})
	var f EWMAFleetFit
	if _, err := f.Fit(s.Window(), dets[4].f, 0, 1); err == nil || errors.Is(err, errNoTrainingRows) {
		t.Errorf("Fit over a 3-attribute detector = %v, want a refusal", err)
	}
}

// TestEWMAFleetFitAllocationFree: a warm fleet fit allocates nothing,
// under each Holt kernel.
func TestEWMAFleetFitAllocationFree(t *testing.T) {
	eachLaneKernel(t, func(t *testing.T) {
		s := buildFleetStore(t, fleetCase{"", 40, 128, 140, 10, false, -1})
		fleet := newEWMAFleet(s.VMs(), metrics.NumAttributes, EWMAOptions{}.withDefaults())
		var f EWMAFleetFit
		fit := func() {
			if _, err := f.Fit(s.Window(), fleet, 0, s.VMs()); err != nil {
				t.Fatal(err)
			}
		}
		fit()
		if allocs := testing.AllocsPerRun(10, fit); allocs != 0 && !raceEnabled {
			t.Errorf("warm fleet fit allocates %v/op, want 0", allocs)
		}
	})
}

// FuzzFleetFit builds a store from a fleet size, a window, a tick count,
// a seed and the edge-value and silent-VM switches, and runs
// checkFleetFit on it under every Holt kernel in 1 and 3 ranges. The
// seeds are fleetCases.
func FuzzFleetFit(f *testing.F) {
	for _, c := range fleetCases {
		f.Add(uint8(c.nVMs), uint8(c.window), uint16(c.ticks), c.seed, c.edge, c.silent >= 0)
	}
	f.Fuzz(func(t *testing.T, nVMs, window uint8, ticks uint16, seed int64, edge, silent bool) {
		c := fleetCase{nVMs: 1 + int(nVMs)%40, window: int(window) % 160, ticks: int(ticks) % 320, seed: seed, edge: edge, silent: -1}
		if silent {
			c.silent = int(seed&0xff) % c.nVMs
		}
		if c.ticks == 0 {
			return
		}
		s := buildFleetStore(t, c)
		for _, k := range laneKinds {
			if !laneKindAvailable(k) {
				continue
			}
			withLaneKernel(k, func() {
				checkFleetFit(t, s, 1)
				checkFleetFit(t, s, 3)
			})
		}
	})
}

// BenchmarkEWMAFleetFit times the fleet fit of 2,000 VMs over a
// 128-tick window, the fleet_ewma world's refit, under each Holt kernel.
func BenchmarkEWMAFleetFit(b *testing.B) {
	s := buildFleetStore(b, fleetCase{"", 2000, 128, 128, 12, false, -1})
	fleet := newEWMAFleet(s.VMs(), metrics.NumAttributes, EWMAOptions{}.withDefaults())
	for _, k := range laneKinds {
		if !laneKindAvailable(k) {
			continue
		}
		b.Run(k.String(), func(b *testing.B) {
			withLaneKernel(k, func() {
				var f EWMAFleetFit
				for b.Loop() {
					if _, err := f.Fit(s.Window(), fleet, 0, s.VMs()); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
