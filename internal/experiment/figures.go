package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"prepare/internal/control"
	"prepare/internal/faults"
	"prepare/internal/pool"
	"prepare/internal/predict"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
)

// Schemes in presentation order (matching the paper's bar groups).
func allSchemes() []control.Scheme {
	return []control.Scheme{control.SchemeNone, control.SchemeReactive, control.SchemePREPARE}
}

func allFaults() []faults.Kind {
	return []faults.Kind{faults.MemoryLeak, faults.CPUHog, faults.Bottleneck}
}

func allApps() []AppKind { return []AppKind{SystemS, RUBiS} }

// ViolationCell is one bar of Figures 6/8: the SLO violation time of one
// app × fault × scheme combination, mean ± stddev over repetitions.
type ViolationCell struct {
	App    AppKind
	Fault  faults.Kind
	Scheme control.Scheme
	Stat   Stat
}

// FigureSLOViolation reproduces Figure 6 (policy = ScalingFirst) or
// Figure 8 (policy = MigrationOnly): SLO violation time for every
// app × fault × scheme cell, over `seeds` repetitions starting at
// baseSeed. The full grid — every cell × every seed — is flattened into
// one batch and fanned out over the package worker pool; cell order and
// results are identical to a serial sweep.
func FigureSLOViolation(policy prevent.Policy, seeds int, baseSeed int64) ([]ViolationCell, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiment: repetitions %d must be >= 1", seeds)
	}
	var scenarios []Scenario
	var cells []ViolationCell
	for _, app := range allApps() {
		for _, fault := range allFaults() {
			for _, scheme := range allSchemes() {
				cells = append(cells, ViolationCell{App: app, Fault: fault, Scheme: scheme})
				for s := 0; s < seeds; s++ {
					scenarios = append(scenarios, Scenario{
						App: app, Fault: fault, Scheme: scheme,
						Policy: policy, Seed: baseSeed + int64(s),
					})
				}
			}
		}
	}
	results, err := RunAll(scenarios, BatchOptions{})
	if err != nil {
		return nil, err
	}
	values := make([]float64, seeds)
	for ci := range cells {
		for s := 0; s < seeds; s++ {
			values[s] = float64(results[ci*seeds+s].EvalViolationSeconds)
		}
		cells[ci].Stat = NewStat(values)
	}
	return cells, nil
}

// FormatViolationCells renders Figure 6/8 cells as a text table.
func FormatViolationCells(title string, cells []ViolationCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %-11s %-22s %15s %12s %12s\n",
		"app", "fault", "scheme", "violation(s)", "vs none", "vs reactive")
	baseline := map[string]float64{}
	reactive := map[string]float64{}
	for _, c := range cells {
		key := c.App.String() + "/" + c.Fault.String()
		switch c.Scheme {
		case control.SchemeNone:
			baseline[key] = c.Stat.Mean
		case control.SchemeReactive:
			reactive[key] = c.Stat.Mean
		}
	}
	for _, c := range cells {
		key := c.App.String() + "/" + c.Fault.String()
		vsNone, vsReactive := "", ""
		if c.Scheme == control.SchemePREPARE {
			vsNone = formatChange(Reduction(baseline[key], c.Stat.Mean))
			vsReactive = formatChange(Reduction(reactive[key], c.Stat.Mean))
		}
		fmt.Fprintf(&b, "%-8s %-11s %-22s %15s %12s %12s\n",
			c.App, c.Fault, c.Scheme, c.Stat, vsNone, vsReactive)
	}
	return b.String()
}

// formatChange renders a percent reduction as the signed change in
// violation time: a 20% reduction is "-20%", a 20% increase "+20%".
func formatChange(reduction float64) string {
	return fmt.Sprintf("%+.0f%%", -reduction)
}

// TraceSeries is one curve of Figures 7/9: the SLO metric trace of one
// scheme around the second fault injection.
type TraceSeries struct {
	Scheme control.Scheme
	Points []TracePoint
}

// FigureTraces reproduces one subplot of Figure 7 (scaling) or Figure 9
// (migration): the sampled SLO metric trace of all three schemes during
// the second fault injection (plus margins).
func FigureTraces(app AppKind, fault faults.Kind, policy prevent.Policy, seed int64) ([]TraceSeries, error) {
	schemes := allSchemes()
	scenarios := make([]Scenario, len(schemes))
	for i, scheme := range schemes {
		scenarios[i] = Scenario{App: app, Fault: fault, Scheme: scheme, Policy: policy, Seed: seed}
	}
	results, err := RunAll(scenarios, BatchOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiment: trace: %w", err)
	}
	out := make([]TraceSeries, len(results))
	for i, res := range results {
		from := simclock.Time(res.Scenario.Inject2[0] - 60)
		to := simclock.Time(res.Scenario.Inject2[1] + 120)
		var window []TracePoint
		for _, p := range res.Trace {
			if !p.Time.Before(from) && p.Time.Before(to) {
				window = append(window, p)
			}
		}
		out[i] = TraceSeries{Scheme: schemes[i], Points: window}
	}
	return out, nil
}

// FormatTraces renders trace series as columns sampled every stride
// seconds.
func FormatTraces(title, metricName string, series []TraceSeries, stride int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", title, metricName)
	fmt.Fprintf(&b, "%-8s", "t(s)")
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Scheme)
	}
	fmt.Fprintln(&b)
	if len(series) == 0 || len(series[0].Points) == 0 {
		return b.String()
	}
	n := len(series[0].Points)
	for i := 0; i < n; i += int(stride) {
		fmt.Fprintf(&b, "%-8d", series[0].Points[i].Time.Seconds())
		for _, s := range series {
			if i < len(s.Points) {
				mark := " "
				if s.Points[i].Violated {
					mark = "*"
				}
				fmt.Fprintf(&b, " %21.1f%s", s.Points[i].Metric, mark)
			}
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b, "(* marks SLO violation)")
	return b.String()
}

// AccuracyCurve labels one accuracy sweep line (e.g., "per-component" vs
// "monolithic").
type AccuracyCurve struct {
	Label  string
	Points []AccuracyPoint
}

// FigurePerComponentVsMonolithic reproduces one subplot of Figure 10:
// prediction accuracy of the per-component scheme versus the monolithic
// model across look-ahead windows.
func FigurePerComponentVsMonolithic(app AppKind, fault faults.Kind, seed int64) ([]AccuracyCurve, error) {
	ds, err := CollectDataset(Scenario{App: app, Fault: fault, Seed: seed})
	if err != nil {
		return nil, err
	}
	return sweepCurves(ds, []curveSpec{
		{label: "per-component", lookaheads: DefaultLookaheads(), opts: AccuracyOptions{}},
		{label: "monolithic", lookaheads: DefaultLookaheads(), opts: AccuracyOptions{Monolithic: true}},
	})
}

// FigureMarkovComparison reproduces one subplot of Figure 11: the
// 2-dependent Markov model versus the simple Markov model.
func FigureMarkovComparison(app AppKind, fault faults.Kind, seed int64) ([]AccuracyCurve, error) {
	ds, err := CollectDataset(Scenario{App: app, Fault: fault, Seed: seed})
	if err != nil {
		return nil, err
	}
	return sweepCurves(ds, []curveSpec{
		{label: "2-dep. Markov", lookaheads: DefaultLookaheads(),
			opts: AccuracyOptions{Predict: predict.Config{Order: predict.TwoDependent}}},
		{label: "simple Markov", lookaheads: DefaultLookaheads(),
			opts: AccuracyOptions{Predict: predict.Config{Order: predict.SimpleMarkov}}},
	})
}

// FigureAlarmFiltering reproduces Figure 12: accuracy under k=1,2,3 of
// W=4 false alarm filtering for a bottleneck fault in RUBiS.
func FigureAlarmFiltering(seed int64) ([]AccuracyCurve, error) {
	ds, err := CollectDataset(Scenario{App: RUBiS, Fault: faults.Bottleneck, Seed: seed})
	if err != nil {
		return nil, err
	}
	specs := make([]curveSpec, 0, 3)
	for _, k := range []int{1, 2, 3} {
		specs = append(specs, curveSpec{
			label:      fmt.Sprintf("k=%d,W=4", k),
			lookaheads: DefaultLookaheads(),
			opts:       AccuracyOptions{FilterK: k, FilterW: 4},
		})
	}
	return sweepCurves(ds, specs)
}

// FigureSamplingInterval reproduces Figure 13: accuracy under 1, 5, and
// 10 second sampling intervals for a bottleneck fault in RUBiS.
func FigureSamplingInterval(seed int64) ([]AccuracyCurve, error) {
	intervals := []int64{1, 5, 10}
	out := make([]AccuracyCurve, len(intervals))
	// Each interval needs its own dataset (the monitoring cadence changes
	// the collected samples), so the fan-out is per curve; the nested
	// accuracy sweep parallelizes the look-ahead windows within each.
	err := pool.Runner{}.ForEach(context.Background(), len(intervals), func(_ context.Context, i int) error {
		interval := intervals[i]
		ds, err := CollectDataset(Scenario{
			App: RUBiS, Fault: faults.Bottleneck, Seed: seed,
			SamplingIntervalS: interval,
		})
		if err != nil {
			return err
		}
		points, err := AccuracySweep(ds, []int64{10, 20, 30, 40, 50}, AccuracyOptions{
			Predict: predict.Config{SamplingIntervalS: interval},
		})
		if err != nil {
			return err
		}
		out[i] = AccuracyCurve{Label: fmt.Sprintf("%ds interval", interval), Points: points}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatAccuracyCurves renders accuracy curves as a text table with A_T
// and A_F columns per curve.
func FormatAccuracyCurves(title string, curves []AccuracyCurve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s", "lookahead(s)")
	for _, c := range curves {
		fmt.Fprintf(&b, " %14s", "AT("+c.Label+")")
		fmt.Fprintf(&b, " %14s", "AF("+c.Label+")")
	}
	fmt.Fprintln(&b)
	if len(curves) == 0 {
		return b.String()
	}
	// Collect the union of lookaheads (curves normally share them).
	seen := map[int64]bool{}
	var las []int64
	for _, c := range curves {
		for _, p := range c.Points {
			if !seen[p.LookaheadS] {
				seen[p.LookaheadS] = true
				las = append(las, p.LookaheadS)
			}
		}
	}
	sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
	for _, la := range las {
		fmt.Fprintf(&b, "%-14d", la)
		for _, c := range curves {
			found := false
			for _, p := range c.Points {
				if p.LookaheadS == la {
					fmt.Fprintf(&b, " %13.1f%%", 100*p.AT)
					fmt.Fprintf(&b, " %13.1f%%", 100*p.AF)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(&b, " %14s %14s", "-", "-")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
