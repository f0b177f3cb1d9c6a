package control

import (
	"bytes"
	"math/rand"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/predict"
	"prepare/internal/simclock"
)

// newFitController builds an untrained ewma controller over an nVMs
// synthetic world, with a window-tick history (0 for a growing one) and
// the given training workers, and commits ticks ticks of rows to its
// store: about one row in nine unrecorded, ticks 30-69 of every 100
// labelled abnormal, and the VM in store lane silent (-1 for none)
// never recorded.
func newFitController(tb testing.TB, nVMs, window, workers, ticks, silent int) *Controller {
	tb.Helper()
	w := newSynthWorld(nVMs)
	ctl, err := New(SchemePREPARE, w, w, Config{
		Detector:             detector.Spec{Kind: detector.KindEWMA},
		HistoryWindowSamples: window,
		TrainWorkers:         workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(nVMs)))
	for k := 0; k < ticks; k++ {
		for vm := 0; vm < nVMs; vm++ {
			var v metrics.Vector
			for j := range v {
				v[j] = float64(10*vm+j) + 5*rng.NormFloat64()
			}
			ctl.store.StageRow(vm, &v)
			if rng.Intn(9) == 0 || vm == silent {
				ctl.store.Unrecord(vm)
			}
		}
		label := metrics.LabelNormal
		if k%100 >= 30 && k%100 < 70 {
			label = metrics.LabelAbnormal
		}
		ctl.store.Commit(simclock.Time(5*k), label)
	}
	return ctl
}

// TestFitEachFleetMatchesFitVM: with 1 and 3 training workers, an ewma
// fitEach leaves every VM the detector fitVM would fit, installed and
// stamped with the fit's time, and a VM without a recorded row fails it
// with fitVM's error.
func TestFitEachFleetMatchesFitVM(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctl := newFitController(t, 29, 128, workers, 150, -1)
		const now = simclock.Time(750)
		if err := ctl.fitEach(now, false); err != nil {
			t.Fatal(err)
		}
		for i := range ctl.vms {
			v := &ctl.vms[i]
			want, err := predict.NewDetector(ctl.cfg.Detector, ctl.detectorOptions(v.id))
			if err != nil {
				t.Fatal(err)
			}
			_, rows, labels := ctl.store.RowsInto(v.store, nil, nil, nil)
			if err := want.Train(rows, labels); err != nil {
				t.Fatal(err)
			}
			got, _ := v.det.AppendBinary(nil)
			wantB, _ := want.AppendBinary(nil)
			if !bytes.Equal(got, wantB) || v.det != v.built || v.fitAt != now {
				t.Fatalf("%d workers, %s: the fleet fit installed %T fit at %v, unlike fitVM's", workers, v.id, v.det, v.fitAt)
			}
		}

		silent := newFitController(t, 29, 128, workers, 150, 17)
		err := silent.fitEach(now, false)
		var wantErr error
		for i := range silent.vms {
			if silent.vms[i].store == 17 {
				wantErr = silent.fitVM(now, i, &fitBuf{})
			}
		}
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%d workers: a silent VM fails the fleet fit with %v, fitVM with %v", workers, err, wantErr)
		}
	}
}

// TestFitEachAllocationFree: a warm ewma refit through fitEach allocates
// nothing on one training worker. The detector package pins the fleet
// fit itself under each Holt kernel (TestEWMAFleetFitAllocationFree).
func TestFitEachAllocationFree(t *testing.T) {
	ctl := newFitController(t, 40, 128, 1, 140, -1)
	refit := func() {
		if err := ctl.fitEach(700, false); err != nil {
			t.Fatal(err)
		}
	}
	refit()
	if allocs := testing.AllocsPerRun(10, refit); allocs != 0 {
		t.Errorf("warm ewma refit allocates %v/op, want 0", allocs)
	}
}

// BenchmarkFitEach times one periodic ewma refit of 2,000 VMs from a
// 128-tick window on one training worker, the fleet_ewma world's
// refit: "fleet" is fitEach's one pass over the store, "per-vm" fitVM's
// gather and Train for each VM in turn. The refit tick sits below the
// p99 the end-to-end benchmark reports, so this is its budget.
func BenchmarkFitEach(b *testing.B) {
	ctl := newFitController(b, 2000, 128, 1, 128, -1)
	if err := ctl.fitEach(640, false); err != nil {
		b.Fatal(err)
	}
	b.Run("fleet", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := ctl.fitEach(640, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-vm", func(b *testing.B) {
		var buf fitBuf
		b.ReportAllocs()
		for b.Loop() {
			for i := range ctl.vms {
				if err := ctl.fitVM(640, i, &buf); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
