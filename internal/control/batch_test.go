package control

import (
	"fmt"
	"math"
	"testing"

	"prepare/internal/chaos"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// synthWorld is a cheap deterministic N-VM substrate + App for the
// golden tick tests and fleet-scale benchmarks: every Sample is a pure
// O(1) function of (VM index, time), the app's SLO violates on a fixed
// episode schedule, and a rotating subset of VMs carries the anomaly
// signal during each episode. Actuations succeed without modeling
// placement, so the control loop's full alert → diagnose → actuate →
// validate path runs without cloudsim's per-VM bookkeeping cost.
type synthWorld struct {
	ids      []substrate.VMID // app order (deliberately not sorted)
	sorted   []substrate.VMID
	idx      map[substrate.VMID]int
	now      simclock.Time
	violated bool
}

const (
	synthEpisodePeriodS = 120
	synthEpisodeLenS    = 30
)

func newSynthWorld(n int) *synthWorld {
	w := &synthWorld{idx: make(map[substrate.VMID]int, n)}
	// Reverse construction order so the app order differs from sorted
	// order — the columnar store follows the former, vmOrder the latter.
	for i := n - 1; i >= 0; i-- {
		id := substrate.VMID(fmt.Sprintf("vm-%05d", i))
		w.ids = append(w.ids, id)
		w.idx[id] = i
	}
	w.sorted = make([]substrate.VMID, n)
	for i := range w.sorted {
		w.sorted[i] = substrate.VMID(fmt.Sprintf("vm-%05d", i))
	}
	return w
}

func (w *synthWorld) inEpisode(now simclock.Time) bool {
	return now.Seconds()%synthEpisodePeriodS < synthEpisodeLenS
}

// hot reports whether the VM carries the anomaly signal in the current
// episode (the hot set rotates between episodes; small fleets shrink
// the rotation stride so every episode has a hot VM).
func (w *synthWorld) hot(i int, now simclock.Time) bool {
	if !w.inEpisode(now) {
		return false
	}
	stride := int64(5)
	if n := int64(len(w.ids)); n < stride {
		stride = n
	}
	episode := now.Seconds() / synthEpisodePeriodS
	return int64(i)%stride == episode%stride
}

// App.

func (w *synthWorld) Tick(now simclock.Time) { w.violated = w.inEpisode(now) }
func (w *synthWorld) SLOViolated() bool      { return w.violated }
func (w *synthWorld) SLOMetric() float64     { return 100 }
func (w *synthWorld) VMIDs() []substrate.VMID {
	out := make([]substrate.VMID, len(w.ids))
	copy(out, w.ids)
	return out
}

// MetricSource.

func (w *synthWorld) Advance(now simclock.Time) { w.now = now }

func (w *synthWorld) Sample(id substrate.VMID) (metrics.Vector, error) {
	i, ok := w.idx[id]
	if !ok {
		return metrics.Vector{}, substrate.ErrNoSuchVM
	}
	t := float64(w.now.Seconds())
	phase := float64(i) * 0.7
	base := 30 + 10*math.Sin(t/40+phase)
	var v metrics.Vector
	for a := range v {
		v[a] = base + float64(a)*3
	}
	if w.hot(i, w.now) {
		// The anomaly symptom: CPU, load, and context switches surge
		// while free memory collapses.
		v[metrics.CPUTotal.Index()] *= 3
		v[metrics.CPUUser.Index()] *= 3
		v[metrics.Load1.Index()] *= 4
		v[metrics.CtxSwitch.Index()] *= 4
		v[metrics.FreeMem.Index()] *= 0.2
	}
	return v, nil
}

// Inventory.

func (w *synthWorld) VMs() []substrate.VMID {
	out := make([]substrate.VMID, len(w.sorted))
	copy(out, w.sorted)
	return out
}

func (w *synthWorld) Allocation(id substrate.VMID) (substrate.Allocation, error) {
	if _, ok := w.idx[id]; !ok {
		return substrate.Allocation{}, substrate.ErrNoSuchVM
	}
	return substrate.Allocation{CPUPct: 100, MemMB: 512}, nil
}

func (w *synthWorld) Migrating(substrate.VMID) (bool, error) { return false, nil }

// Actuator: every action succeeds instantly (placement is not modeled).

func (w *synthWorld) ScaleCPU(simclock.Time, substrate.VMID, float64) error { return nil }
func (w *synthWorld) ScaleMem(simclock.Time, substrate.VMID, float64) error { return nil }
func (w *synthWorld) Migrate(simclock.Time, substrate.VMID, float64, float64) error {
	return nil
}
func (w *synthWorld) MigrationSeconds(float64) int64 { return 10 }

var _ substrate.Substrate = (*synthWorld)(nil)
var _ App = (*synthWorld)(nil)

// runSynth drives one controller over a fresh synthetic world for
// `until` simulated seconds and returns the controller plus its
// telemetry registry. cfg supplies the detector (the zero spec is the
// default, tan) and any retraining knobs; the training instant, monitor
// seed and telemetry registry are fixed here.
func runSynth(tb testing.TB, nVMs int, until int64, chaosRate float64, cfg Config) (*Controller, *telemetry.Registry) {
	tb.Helper()
	w := newSynthWorld(nVMs)
	var sub substrate.Substrate = w
	if chaosRate > 0 {
		cs, err := chaos.New(w, chaos.Uniform(7, chaosRate))
		if err != nil {
			tb.Fatal(err)
		}
		sub = cs
	}
	reg := telemetry.New(telemetry.Options{})
	cfg.TrainAtS = 300
	cfg.MonitorSeed = 11
	cfg.Telemetry = reg
	ctl, err := New(SchemePREPARE, sub, w, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for s := int64(1); s <= until; s++ {
		now := simclock.Time(s)
		w.Tick(now)
		if err := ctl.OnTick(now); err != nil {
			tb.Fatalf("tick %d: %v", s, err)
		}
	}
	return ctl, reg
}

// measureTickAllocs returns the steady-state allocations of one
// post-training sampling tick in a violation-free phase.
func measureTickAllocs(tb testing.TB, nVMs int) float64 {
	tb.Helper()
	w := newSynthWorld(nVMs)
	ctl, err := New(SchemePREPARE, w, w, Config{
		TrainAtS:    300,
		MonitorSeed: 11,
		// A bounded series ring keeps training-series appends from
		// reallocating mid-measurement.
		HistoryWindowSamples: 128,
		// An unreachable alert margin keeps the measurement on the pure
		// hot path: alert handling (materialize, diagnose, actuate,
		// validate) costs per *alert*, not per VM, and is identical in
		// both modes.
		AlertScoreMargin: 1e12,
	})
	if err != nil {
		tb.Fatal(err)
	}
	now := int64(0)
	tick := func() {
		now += ctl.cfg.SamplingIntervalS
		// Stay off the episode schedule's violation windows: benign
		// steady state is the hot path being measured.
		if now%synthEpisodePeriodS < synthEpisodeLenS {
			now = (now/synthEpisodePeriodS)*synthEpisodePeriodS + synthEpisodeLenS
			now = (now/ctl.cfg.SamplingIntervalS + 1) * ctl.cfg.SamplingIntervalS
		}
		w.Tick(simclock.Time(now))
		if err := ctl.OnTick(simclock.Time(now)); err != nil {
			tb.Fatalf("tick %d: %v", now, err)
		}
	}
	// Drive normally (episodes included) until trained, then warm up.
	for s := int64(1); s <= 400; s++ {
		w.Tick(simclock.Time(s))
		if err := ctl.OnTick(simclock.Time(s)); err != nil {
			tb.Fatalf("tick %d: %v", s, err)
		}
	}
	if !ctl.Trained() {
		tb.Fatal("controller never trained")
	}
	now = 400
	for i := 0; i < 40; i++ {
		tick()
	}
	return testing.AllocsPerRun(60, tick)
}

// TestBatchTickAllocsIndependentOfFleetSize pins the tick's allocation
// count: small, and — the columnar property — independent of the VM
// count.
func TestBatchTickAllocsIndependentOfFleetSize(t *testing.T) {
	small := measureTickAllocs(t, 4)
	large := measureTickAllocs(t, 32)
	if small != large {
		t.Errorf("tick allocs scale with fleet size: %v at 4 VMs vs %v at 32 VMs", small, large)
	}
	if large > 6 {
		t.Errorf("tick allocates %v/op, want <= 6", large)
	}
}
