package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/benchmark/world"
	"prepare/internal/control"
	"prepare/internal/replay"
	"prepare/internal/telemetry"
)

// Shared by the control and telemetry probes.

// probeRetrainS is the probes' retrain period: five retrain ticks
// inside a 200-instant timed part.
const probeRetrainS = 200

// controlRun is what one replay of the capture through a control loop
// measured, split by what each tick did.
type controlRun struct {
	ctl *control.Controller

	trainMs     float64   // the training tick
	untrainedNs []float64 // sampling ticks before training
	trainedNs   []float64 // sampling ticks after it that did not retrain
	retrainMs   []float64 // sampling ticks that retrained
	offNs       []float64 // ticks between sampling instants, after training
	allocs      float64   // heap allocations per VM over trainedNs's ticks
	alerts      int       // confirmed alerts over the timed part
}

// newController builds a PREPARE control loop over a replay substrate
// holding the whole capture, with the fleet workloads' bounded history
// and the probes' retrain period.
func (c *Capture) newController(reg *telemetry.Registry) (*control.Controller, error) {
	sub, err := replay.New(c.Traces(0, c.Ticks), replay.Config{})
	if err != nil {
		return nil, err
	}
	app, err := replay.NewApp(sub)
	if err != nil {
		return nil, err
	}
	return control.New(control.SchemePREPARE, sub, app, control.Config{
		TrainAtS:             c.trainAtS(),
		RetrainIntervalS:     probeRetrainS,
		HistoryWindowSamples: 128,
		MonitorNoiseStd:      -1,
		MonitorSeed:          c.Seed,
		Telemetry:            reg,
	})
}

// runControl ticks a fresh control loop through every second of the
// capture.
func (c *Capture) runControl(reg *telemetry.Registry) (*controlRun, error) {
	ctl, err := c.newController(reg)
	if err != nil {
		return nil, err
	}
	run := &controlRun{ctl: ctl}
	trainAt := c.trainAtS()
	last := SimTime(c.Ticks - 1).Seconds()
	var trainedAllocs uint64
	for s := int64(1); s <= last; s++ {
		sampling := s%world.SamplingS == 0
		retrains := s > trainAt && (s-trainAt)%probeRetrainS == 0
		var m0 uint64
		if sampling && s > trainAt && !retrains {
			m0 = mallocs()
		}
		t0 := time.Now()
		if err := ctl.OnTick(simSecond(s)); err != nil {
			return nil, err
		}
		ns := float64(time.Since(t0).Nanoseconds())
		switch {
		case s == trainAt:
			run.trainMs = ns / 1e6
		case !sampling:
			if s > trainAt {
				run.offNs = append(run.offNs, ns)
			}
		case s < trainAt:
			run.untrainedNs = append(run.untrainedNs, ns)
		case retrains:
			run.retrainMs = append(run.retrainMs, ns/1e6)
		default:
			run.trainedNs = append(run.trainedNs, ns)
			trainedAllocs += mallocs() - m0
		}
	}
	run.allocs = float64(trainedAllocs) / float64(len(run.trainedNs)*len(c.VMs))
	run.alerts = ctl.AlertCount()
	return run, nil
}

// trainedTickNs is the median trained sampling tick of a run.
func (r *controlRun) trainedTickNs() float64 { return stats.Median(r.trainedNs) }
