// Package probes holds the benchmark's per-layer probes. A probe
// replays a workload's captured inputs through one layer of the system
// in isolation — calling that layer's exported functions directly — and
// reports one or more named per-layer metrics. Each probe lives in its
// own file and registers itself, so one can be replaced without
// touching the rest.
//
// Metric names are <module>.<what>_<unit>; units are spelled out in the
// Metric so the report prints them.
package probes

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"prepare/benchmark/world"
	"prepare/internal/simclock"
)

// Metric is one named per-layer number.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	// Better is "lower" or "higher".
	Better string
}

// Probe measures one layer on a capture.
type Probe struct {
	// Name identifies the probe (its file name).
	Name string
	// Metrics declares what the probe reports, so the benchmark can
	// list every per-layer metric without running anything.
	Metrics []Metric
	// Run measures; it returns one value per declared metric, in order.
	Run func(c *Capture, env Env) ([]float64, error)
}

// Env carries run-wide settings into probes.
type Env struct {
	// Smoke shrinks iteration counts so the whole probe set runs in
	// about a second.
	Smoke bool
}

// Iters scales an iteration count down under -smoke.
func (e Env) Iters(full int) int {
	if e.Smoke {
		if full >= 20 {
			return full / 20
		}
		return 1
	}
	return full
}

var registry []Probe

func register(p Probe) { registry = append(registry, p) }

// All returns every registered probe, sorted by name.
func All() []Probe {
	out := append([]Probe(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Declared lists every per-layer metric the probes report, in probe
// order.
func Declared() []Metric {
	var out []Metric
	for _, p := range All() {
		out = append(out, p.Metrics...)
	}
	return out
}

// RunAll runs every probe on the capture and returns the metrics with
// their values filled in.
func RunAll(c *Capture, env Env) ([]Metric, error) {
	var out []Metric
	for _, p := range All() {
		vals, err := p.Run(c, env)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.Name, err)
		}
		if len(vals) != len(p.Metrics) {
			return nil, fmt.Errorf("probe %s: %d values for %d metrics", p.Name, len(vals), len(p.Metrics))
		}
		for i, m := range p.Metrics {
			m.Value = vals[i]
			out = append(out, m)
		}
	}
	return out, nil
}

// SimTime is the simulated instant of capture instant k.
func SimTime(k int) simclock.Time { return simclock.Time(int64(k) * world.SamplingS) }

// simSecond is simulated second s.
func simSecond(s int64) simclock.Time { return simclock.Time(s) }

// lower and higher build metric declarations.
func lower(name, unit string) Metric  { return Metric{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) Metric { return Metric{Name: name, Unit: unit, Better: "higher"} }

// timeIt runs fn reps times and returns the median wall time of one
// call in nanoseconds. Probes report medians of repeated batches, not
// one mean, so a scheduler hiccup does not move the number.
func timeIt(reps int, fn func()) float64 {
	if reps < 1 {
		reps = 1
	}
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// withTwoProcs runs fn with the scheduler raised to two processors and
// restores the benchmark's setting afterwards: the speed-up probes
// compare one worker against two, which needs somewhere to run the
// second.
func withTwoProcs(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	return fn()
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sink keeps results alive so the compiler cannot drop measured calls.
var sink float64
