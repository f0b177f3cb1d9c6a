package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"prepare"
	"prepare/benchmark/probes"
	"prepare/benchmark/trace"
	"prepare/benchmark/world"
)

// Fleet timeline, in simulated seconds. Every VM goes through one
// training episode inside the wave, which ends early enough for the
// forecast detectors' trend state to settle before models are fit at
// fleetTrainAtS; recurring episodes start with the timed window.
const (
	fleetTrainAtS   = 300
	fleetRetrainS   = 600
	fleetHistory    = 128
	fleetPeriodS    = 10000 // 150/10000: 1.5% of VMs inside an episode per tick
	fleetEpisodeS   = 150
	fleetTrainJitS  = 20
	fleetOracleOps  = 40
	fleetSmokeTicks = 8
)

var fleetTrainWave = [2]int64{60, 180}

func fleetWorldConfig(seed int64, vms int) world.Config {
	return world.Config{
		Seed: seed, VMs: vms,
		TrainWave: fleetTrainWave, TrainJitterS: fleetTrainJitS,
		SteadyFromS: fleetTrainAtS, PeriodS: fleetPeriodS, EpisodeS: fleetEpisodeS,
	}
}

func fleetTAN() workload {
	return fleetWorkload("fleet_tan",
		"synchronous Engine.Step over one tenant of TAN-modelled VMs: the tick is the detector, so predict/markov/bayes do nearly all the work and wire/server none",
		"tan", 250, 12)
}

func fleetEWMA() workload {
	return fleetWorkload("fleet_ewma",
		"the same world, 8x the VMs, under the near-free ewma detector: the per-tick skeleton (collect, row copy, forecast push, workload inference) shows and TAN-kernel work must not move it",
		"ewma", 2000, 48)
}

func fleetWorkload(name, why, det string, vms, smokeVMs int) workload {
	return workload{
		name: name,
		why:  why,
		setup: func(seed int64, sz sizing) (instance, error) {
			return newFleet(seed, sz.pick(vms, smokeVMs), det, 2)
		},
		verify: func(seed int64, sz sizing, inst instance) (int64, []string) {
			return verifyFleet(seed, sz.pick(vms, smokeVMs), det, inst.(*fleet), sz)
		},
		capture: func(seed int64, sz sizing) (*probes.Capture, error) {
			w, err := world.New(fleetWorldConfig(seed, sz.pick(vms, smokeVMs)))
			if err != nil {
				return nil, err
			}
			return probes.CaptureWorld(w, fleetTrainAtS, sz.pick(probes.CaptureTimedTicks, smokeCaptureTicks)), nil
		},
	}
}

// fleet is one tenant of synthetic VMs under a synchronous engine,
// stepped to just past its training tick.
type fleet struct {
	vms int
	sub *world.Substrate
	eng *prepare.Engine
	now int64
}

// newFleet builds the world, the controller over the benchmark's own
// substrate, and the engine, then steps through the training tick so
// the timed window starts on trained models. workers sets the engine's
// shard, pool, and training parallelism (2 for the timed pass, 1 for
// the single-threaded reference).
func newFleet(seed int64, vms int, det string, workers int) (*fleet, error) {
	w, err := world.New(fleetWorldConfig(seed, vms))
	if err != nil {
		return nil, err
	}
	spec, err := prepare.ParseDetectorSpec(det)
	if err != nil {
		return nil, err
	}
	sub := world.NewSubstrate(w, 0)
	ctl, err := prepare.NewSubstrateController(prepare.SchemePREPARE, sub, world.NewApp(sub), prepare.ControlConfig{
		TrainAtS:             fleetTrainAtS,
		RetrainIntervalS:     fleetRetrainS,
		HistoryWindowSamples: fleetHistory,
		Detector:             spec,
		TrainWorkers:         workers,
		// The world's rows already carry measurement noise.
		MonitorNoiseStd: -1,
		MonitorSeed:     seed,
	})
	if err != nil {
		return nil, err
	}
	eng, err := prepare.NewEngine([]prepare.Tenant{{
		ID:         "fleet",
		Controller: ctl,
		Advance:    func(now prepare.SimTime) error { sub.Advance(now); return nil },
	}}, prepare.EngineOptions{Shards: workers, Workers: workers})
	if err != nil {
		return nil, err
	}
	f := &fleet{vms: vms, sub: sub, eng: eng}
	for f.now < fleetTrainAtS {
		f.now++
		if err := eng.Step(prepare.SimTime(f.now)); err != nil {
			return nil, fmt.Errorf("fleet warm-up t=%d: %w", f.now, err)
		}
	}
	if st := eng.Stats(); st.Trained != 1 {
		return nil, fmt.Errorf("fleet: models not trained after t=%d", f.now)
	}
	return f, nil
}

// tick runs one operation: the four off-sample seconds and the sampling
// second of one monitoring interval. It returns the first Step error.
func (f *fleet) tick(tr *trace.Tracer, op int64) error {
	root := tr.Begin("fleet.tick", trace.NoSpan, op)
	defer tr.End(root)
	for k := 0; k < world.SamplingS; k++ {
		f.now++
		name := "control.Engine.Step/off"
		if f.now%world.SamplingS == 0 {
			name = "control.Engine.Step/sample"
		}
		s := tr.Begin(name, root, op)
		err := f.eng.Step(prepare.SimTime(f.now))
		if tr != nil {
			// The substrate's row generation ran inside Step; book it as
			// a child so Step's self time is the system's alone.
			tr.Add("world.Substrate.Sample", s, op, f.sub.SampleTime)
			f.sub.SampleTime = 0
		}
		tr.End(s)
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) run(d time.Duration, tr *trace.Tracer) (runStats, error) {
	f.sub.Timed = tr != nil
	var rs runStats
	before := f.eng.Stats()
	start := time.Now()
	for time.Since(start) < d {
		opStart := time.Now()
		err := f.tick(tr, rs.ops)
		rs.latMs = append(rs.latMs, msSince(opStart))
		rs.ops++
		rs.vmSteps += int64(f.vms)
		if err != nil {
			rs.failed++
			rs.notes = append(rs.notes, err.Error())
			break // the engine's state past a failed Step is undefined
		}
	}
	rs.elapsed = time.Since(start)
	after := f.eng.Stats()
	rs.detail("alerts", "count", float64(after.Alerts-before.Alerts))
	rs.detail("actions", "count", float64(after.Steps-before.Steps))
	rs.detail("alerts_per_tick", "count", float64(after.Alerts-before.Alerts)/math.Max(1, float64(rs.ops)))
	addLatencyDetails(&rs, "tick_ms")
	return rs, nil
}

// runTicks steps exactly n operations untimed (the reference pass).
func (f *fleet) runTicks(n int64) error {
	for i := int64(0); i < n; i++ {
		if err := f.tick(nil, i); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) digest(upTo int64) string {
	h := sha256.New()
	for _, a := range f.eng.Alerts() {
		if a.Time.Seconds() > upTo {
			break // Alerts is sorted by time
		}
		fmt.Fprintf(h, "A|%d|%s|%x|%t\n", a.Time.Seconds(), a.VM, math.Float64bits(a.Score), a.Predicted)
	}
	for _, s := range f.eng.Steps() {
		if s.Time.Seconds() > upTo {
			break
		}
		fmt.Fprintf(h, "S|%d|%s|%d|%d|%s\n", s.Time.Seconds(), s.VM, s.Kind, s.Resource, s.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (f *fleet) horizon() int64 { return f.now }

func (f *fleet) close() {}

// verifyFleet replays the first operations of the timed pass through a
// single-threaded engine (one shard, one pool worker, serial training)
// built from the same seed and requires the alert and actuation streams
// over that prefix to be byte-identical. A fleet that raised no alert
// at all fails too: the comparison would be vacuous.
func verifyFleet(seed int64, vms int, det string, timed *fleet, sz sizing) (int64, []string) {
	ops := (timed.now - fleetTrainAtS) / world.SamplingS
	n := int64(sz.pick(fleetOracleOps, fleetSmokeTicks))
	if ops < n {
		n = ops
	}
	ref, err := newFleet(seed, vms, det, 1)
	if err != nil {
		return n, []string{"reference set-up: " + err.Error()}
	}
	if err := ref.runTicks(n); err != nil {
		return n, []string{"reference pass: " + err.Error()}
	}
	var notes []string
	var failed int64
	if got, want := timed.digest(ref.now), ref.digest(ref.now); got != want {
		failed += n
		notes = append(notes, fmt.Sprintf("alert/actuation digest over the first %d ticks differs from the single-threaded reference", n))
	}
	if !sz.smoke && len(timed.eng.Alerts()) == 0 {
		failed++
		notes = append(notes, "the fleet raised no alert: the episodes went undetected")
	}
	return failed, notes
}
