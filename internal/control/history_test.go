package control

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/monitor"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/workload"
)

// outageSource makes every VM's metric read transiently unavailable
// while the clock is inside [from, to).
type outageSource struct {
	substrate.Substrate
	now      simclock.Time
	from, to simclock.Time
}

func (o *outageSource) Advance(now simclock.Time) {
	o.now = now
	o.Substrate.Advance(now)
}

func (o *outageSource) Sample(id substrate.VMID) (metrics.Vector, error) {
	if !o.now.Before(o.from) && o.now.Before(o.to) {
		return metrics.Vector{}, fmt.Errorf("outage: %w", substrate.ErrUnavailable)
	}
	return o.Substrate.Sample(id)
}

// spyDetector records the rows and labels the loop folds into it and
// the rows it is fit from, and never alerts.
type spyDetector struct {
	rows      [][]float64
	labels    []metrics.Label
	fit       [][]float64
	fitLabels []metrics.Label
}

func (d *spyDetector) Kind() string  { return detector.KindTAN }
func (d *spyDetector) Trained() bool { return true }
func (d *spyDetector) Train(rows [][]float64, labels []metrics.Label) error {
	d.fit, d.fitLabels = nil, slices.Clone(labels)
	for _, r := range rows {
		d.fit = append(d.fit, slices.Clone(r))
	}
	return nil
}
func (d *spyDetector) Update(row []float64, label metrics.Label) error {
	d.rows, d.labels = append(d.rows, slices.Clone(row)), append(d.labels, label)
	return nil
}
func (d *spyDetector) Observe([]float64) error {
	return errors.New("spy: Observe on a loop that folds every row")
}
func (d *spyDetector) Score(int64) (detector.Decision, error)      { return detector.Decision{}, nil }
func (d *spyDetector) Verdict() (detector.Verdict, error)          { return detector.Verdict{}, nil }
func (d *spyDetector) Current([]float64) (detector.Verdict, error) { return detector.Verdict{}, nil }
func (d *spyDetector) Retrain() error                              { return nil }
func (d *spyDetector) Save(io.Writer) error                        { return nil }
func (d *spyDetector) AppendBinary(b []byte) ([]byte, error)       { return b, nil }

// TestStaleRowsLeaveTheHistory drives a VM through a metric outage
// longer than its staleness budget inside a bounded history window. The
// loop still observes the carried row on every tick, but folds the rows
// past the budget as unlabeled, and the fit rows, Dataset and
// validation windows all leave them out; the window counts ticks.
func TestStaleRowsLeaveTheHistory(t *testing.T) {
	const (
		window   = 30
		maxStale = 2
		end      = 260
	)
	c, cs, app := newFakeWorld(t, workload.Ramp{Start: 10, Peak: 90, RampTo: end})
	// Ticks 200..245 are carried; the first maxStale of them stay
	// within the budget.
	src := &outageSource{Substrate: cs, from: 200, to: 250}
	ctl, err := New(SchemePREPARE, src, app, Config{
		RetrainIntervalS:     100000, // fold every row, never retrain
		HistoryWindowSamples: window,
		MonitorNoiseStd:      -1,
		MonitorResilience:    monitor.Resilience{MaxStaleTicks: maxStale},
	})
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyDetector{}
	ctl.installDetectors([]detector.Detector{spy})
	unrecorded := func(at simclock.Time) bool { return !at.Before(200+5*maxStale) && at.Before(250) }

	var lastGood []float64
	row := make([]float64, metrics.NumAttributes)
	for s := int64(1); s <= end; s++ {
		now := simclock.Time(s)
		app.Tick(now)
		c.Tick(now)
		if err := ctl.OnTick(now); err != nil {
			t.Fatal(err)
		}
		if s%5 != 0 {
			continue
		}
		k := len(spy.rows) - 1
		if k+1 != int(s/5) {
			t.Fatalf("t=%d: loop folded %d rows, want one per sampling tick", s, k+1)
		}
		ctl.store.RowInto(0, row)
		if !slices.Equal(spy.rows[k], row) {
			t.Errorf("t=%d: observed row %v, store holds %v", s, spy.rows[k], row)
		}
		carried := !now.Before(src.from) && now.Before(src.to)
		if carried && !slices.Equal(spy.rows[k], lastGood) {
			t.Errorf("t=%d: observed %v during the outage, want the carried row %v", s, spy.rows[k], lastGood)
		}
		if !carried {
			lastGood = spy.rows[k]
		}
		want := metrics.LabelNormal
		if unrecorded(now) {
			want = metrics.LabelUnknown
		}
		if spy.labels[k] != want {
			t.Errorf("t=%d: row folded with label %v, want %v", s, spy.labels[k], want)
		}
	}

	// The window holds 30 ticks, 8 of them unrecorded.
	if got := ctl.store.Ticks(); got != window {
		t.Fatalf("store holds %d ticks, want the %d-tick window", got, window)
	}
	ds := ctl.Dataset()["vm1"]
	if len(ds) != window-8 {
		t.Fatalf("Dataset holds %d samples, want %d", len(ds), window-8)
	}
	for _, sm := range ds {
		if unrecorded(sm.Time) || sm.Time.Before(end-5*(window-1)) {
			t.Errorf("Dataset holds a sample at t=%v", sm.Time)
		}
	}

	// A refit reads exactly the Dataset's rows and labels.
	ctl.vms[0].built = spy
	if err := ctl.fitVM(end, 0, &fitBuf{}); err != nil {
		t.Fatal(err)
	}
	if len(spy.fit) != len(ds) {
		t.Fatalf("fit from %d rows, want %d", len(spy.fit), len(ds))
	}
	for i, sm := range ds {
		if !slices.Equal(spy.fit[i], sm.Values[:]) || spy.fitLabels[i] != sm.Label {
			t.Errorf("fit row %d = %v/%v, want the t=%v sample %v/%v", i, spy.fit[i], spy.fitLabels[i], sm.Time, sm.Values, sm.Label)
		}
	}

	// A step at t=215 validates over [200, 215) and (215, 260]: the
	// recorded values at 200 and 205 before, and at 250..260 after.
	v := &ctl.vms[0]
	v.pending = &pendingValidation{step: prevent.Step{Time: 215}, attr: metrics.NetIn}
	ctl.resolveValidation(end, v, false)
	var before, after []float64
	for _, sm := range ds {
		switch at := sm.Time; {
		case !at.Before(200) && at.Before(215):
			before = append(before, sm.Values.Get(metrics.NetIn))
		case at.After(215):
			after = append(after, sm.Values.Get(metrics.NetIn))
		}
	}
	if len(before) != 2 || len(after) != 3 {
		t.Fatalf("Dataset windows hold %d and %d values, want 2 and 3", len(before), len(after))
	}
	if !slices.Equal(ctl.before, before) || !slices.Equal(ctl.after, after) {
		t.Errorf("validation read %v / %v, want %v / %v", ctl.before, ctl.after, before, after)
	}
}
