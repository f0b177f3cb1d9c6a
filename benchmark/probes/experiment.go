package probes

import (
	"time"

	"prepare/benchmark/stats"
	"prepare/internal/control"
	"prepare/internal/experiment"
	"prepare/internal/faults"
)

func init() {
	register(Probe{
		Name: "experiment",
		Metrics: []Metric{
			lower("experiment.scenario_ms_p50", "ms"),
			lower("experiment.prepare_over_none_ms", "ms"),
		},
		Run: runExperiment,
	})
}

// probeScenarios is one RUBiS cell per fault (under -smoke, one fault)
// under the given scheme, seeded from the capture.
func (c *Capture) probeScenarios(scheme control.Scheme, env Env) []experiment.Scenario {
	kinds := []faults.Kind{faults.MemoryLeak, faults.CPUHog, faults.Bottleneck}
	if env.Smoke {
		kinds = kinds[:1]
	}
	var out []experiment.Scenario
	for _, f := range kinds {
		out = append(out, experiment.Scenario{App: experiment.RUBiS, Fault: f, Scheme: scheme, Seed: 100 + c.Seed})
	}
	return out
}

// runExperiment runs one closed-loop RUBiS scenario per fault with and
// without PREPARE, serially: the wall time of a managed run, and how
// much of it the control loop adds on top of the simulator and the
// application.
func runExperiment(c *Capture, env Env) ([]float64, error) {
	timeAll := func(scs []experiment.Scenario) ([]float64, error) {
		var ms []float64
		for _, sc := range scs {
			t0 := time.Now()
			res, err := experiment.Run(sc)
			if err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
			sink += float64(res.EvalViolationSeconds)
		}
		return ms, nil
	}
	none, err := timeAll(c.probeScenarios(control.SchemeNone, env))
	if err != nil {
		return nil, err
	}
	managed, err := timeAll(c.probeScenarios(control.SchemePREPARE, env))
	if err != nil {
		return nil, err
	}
	return []float64{stats.Median(managed), stats.Median(managed) - stats.Median(none)}, nil
}
