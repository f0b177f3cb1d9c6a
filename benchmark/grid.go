package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"prepare"
	"prepare/benchmark/probes"
	"prepare/benchmark/trace"
	"prepare/benchmark/world"
)

// paper_grid shape: the Figure 6 (scaling) and Figure 8 (migration)
// cells, gridSeeds consecutive scenario seeds per cell starting at
// gridSeed(seed).
const (
	gridSeeds    = 5
	gridWorkers  = 2
	gridWarmRuns = 6
)

// gridSeed maps the benchmark seed onto the first scenario seed: -seed 1
// is the 100..104 block EXPERIMENTS.md reports.
func gridSeed(seed int64) int64 { return 100 + gridSeeds*(seed-1) }

var (
	gridApps   = []prepare.AppKind{prepare.SystemS, prepare.RUBiS}
	gridFaults = []prepare.FaultKind{prepare.MemoryLeak, prepare.CPUHog, prepare.Bottleneck}
)

// gridCell identifies one bar of Figure 6 or 8; policy is zero for the
// no-intervention baseline both figures share.
type gridCell struct {
	app    prepare.AppKind
	fault  prepare.FaultKind
	scheme prepare.Scheme
	policy prepare.Policy
}

// gridScenarios lists one pass of the grid with each scenario's cell.
func gridScenarios(seed int64, sz sizing) ([]prepare.Scenario, []gridCell) {
	apps, faultKinds, seeds := gridApps, gridFaults, int64(gridSeeds)
	if sz.smoke {
		apps, faultKinds, seeds = apps[1:], faultKinds[:1], 1
	}
	var scs []prepare.Scenario
	var cells []gridCell
	add := func(c gridCell, s int64) {
		scs = append(scs, prepare.Scenario{App: c.app, Fault: c.fault, Scheme: c.scheme, Policy: c.policy, Seed: s})
		cells = append(cells, c)
	}
	for _, app := range apps {
		for _, f := range faultKinds {
			for s := gridSeed(seed); s < gridSeed(seed)+seeds; s++ {
				add(gridCell{app, f, prepare.SchemeNone, 0}, s)
				for _, pol := range []prepare.Policy{prepare.ScalingFirst, prepare.MigrationOnly} {
					add(gridCell{app, f, prepare.SchemeReactive, pol}, s)
					add(gridCell{app, f, prepare.SchemePREPARE, pol}, s)
				}
			}
		}
	}
	return scs, cells
}

func paperGrid() workload {
	return workload{
		name: "paper_grid",
		why:  "the Figure 6 and 8 cells through prepare.RunAll: the closed-loop simulator path nothing else touches (cloudsim, apps, faults, experiment, pool), checked by the paper's ordering of the schemes",
		setup: func(seed int64, sz sizing) (instance, error) {
			return newGrid(seed, sz)
		},
		verify: func(_ int64, _ sizing, inst instance) (int64, []string) {
			return inst.(*grid).verify()
		},
		capture: func(seed int64, sz sizing) (*probes.Capture, error) {
			// The rows a closed-loop run monitors: the first cell's
			// no-intervention run, which holds both injections.
			res, err := prepare.Run(prepare.Scenario{App: prepare.RUBiS, Fault: prepare.MemoryLeak, Scheme: prepare.SchemeNone, Seed: gridSeed(seed)})
			if err != nil {
				return nil, err
			}
			return probes.CaptureDataset(seed, res.VMOrder, res.Dataset, 600/world.SamplingS+1, sz.pick(probes.CaptureTimedTicks, smokeCaptureTicks))
		},
	}
}

// grid is one pass's scenario list and the results of the first full
// pass a timed window ran.
type grid struct {
	scs   []prepare.Scenario
	cells []gridCell
	first []prepare.Result
}

// newGrid builds the scenario list and runs a few scenarios untimed so
// the timed window starts with a grown heap and warm code paths.
func newGrid(seed int64, sz sizing) (*grid, error) {
	g := &grid{}
	g.scs, g.cells = gridScenarios(seed, sz)
	warm := g.scs
	if len(warm) > gridWarmRuns {
		warm = warm[:gridWarmRuns]
	}
	if _, err := prepare.RunAll(warm, prepare.BatchOptions{Workers: gridWorkers}); err != nil {
		return nil, fmt.Errorf("grid warm-up: %w", err)
	}
	return g, nil
}

// run repeats the grid until d has passed — but always finishes the
// first pass, which the correctness check and the quality counts need
// whole. One closed-loop client runs the scenarios in list order, each
// through prepare.RunAll, so an operation is one scenario and its
// latency is that scenario's wall time.
func (g *grid) run(d time.Duration, tr *trace.Tracer) (runStats, error) {
	var rs runStats
	g.first = nil
	first := make([]prepare.Result, 0, len(g.scs))
	start := time.Now()
	for i := 0; i < len(g.scs) || time.Since(start) < d; i++ {
		sc := g.scs[i%len(g.scs)]
		opStart := time.Now()
		span := tr.Begin("prepare.RunAll", trace.NoSpan, int64(i))
		res, err := prepare.RunAll([]prepare.Scenario{sc}, prepare.BatchOptions{Workers: gridWorkers})
		tr.End(span)
		rs.latMs = append(rs.latMs, msSince(opStart))
		rs.ops++
		if err != nil {
			rs.failed++
			rs.notes = append(rs.notes, err.Error())
			return g.finish(rs, start), nil
		}
		run := res[0].Scenario
		rs.vmSteps += int64(len(res[0].VMOrder)) * (run.DurationS / run.SamplingIntervalS)
		if i < len(g.scs) {
			first = append(first, res[0])
		}
	}
	g.first = first
	return g.finish(rs, start), nil
}

func (g *grid) finish(rs runStats, start time.Time) runStats {
	rs.elapsed = time.Since(start)
	rs.detail("scenarios_per_s", "1/s", float64(rs.ops)/rs.elapsed.Seconds())
	if len(g.first) == len(g.scs) {
		rs.detail("slo_violation_s", "s", g.meanViolation(func(c gridCell) bool { return c.scheme == prepare.SchemePREPARE }))
		var flipped float64
		g.fig6Cells(func(c gridCell) {
			if g.fig6Mean(c, prepare.SchemePREPARE, false) > g.fig6Mean(c, prepare.SchemeReactive, false) {
				flipped++
			}
		})
		rs.detail("cells_prepare_over_reactive", "count", flipped)
		if lead, n := g.leadTime(); n > 0 {
			rs.detail("lead_time_s", "s", lead)
			rs.detail("lead_time_cells", "count", float64(n))
		}
	}
	addLatencyDetails(&rs, "scenario_ms")
	return rs
}

// meanViolation averages EvalViolationSeconds over the first pass's
// runs whose cell passes keep.
func (g *grid) meanViolation(keep func(gridCell) bool) float64 {
	var sum float64
	var n int
	for i, r := range g.first {
		if keep(g.cells[i]) {
			sum += float64(r.EvalViolationSeconds)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// leadTime is the mean, over the memory-leak and bottleneck runs under
// scaling-first PREPARE, of how long before the violation onset of the
// matching no-intervention run the first alert of the second injection
// came. Runs where either never happened are left out; n counts the
// rest.
func (g *grid) leadTime() (mean float64, n int) {
	type key struct {
		app   prepare.AppKind
		fault prepare.FaultKind
		seed  int64
	}
	onset := map[key]int64{}
	for i, r := range g.first {
		if g.cells[i].scheme != prepare.SchemeNone {
			continue
		}
		for _, p := range r.Trace {
			if p.Time.Seconds() >= r.Scenario.Inject2[0] && p.Violated {
				onset[key{g.cells[i].app, g.cells[i].fault, r.Scenario.Seed}] = p.Time.Seconds()
				break
			}
		}
	}
	var sum float64
	for i, r := range g.first {
		c := g.cells[i]
		if c.scheme != prepare.SchemePREPARE || c.policy != prepare.ScalingFirst || c.fault == prepare.CPUHog {
			continue
		}
		at, ok := onset[key{c.app, c.fault, r.Scenario.Seed}]
		if !ok {
			continue
		}
		for _, a := range r.Alerts {
			if a.Time.Seconds() >= r.Scenario.Inject2[0] {
				sum += float64(at - a.Time.Seconds())
				n++
				break
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// inFig6 reports whether a run of cell o takes part in Figure 6's
// comparison for the (application, fault) cell of c, or for any cell
// when all is set: the scaling-first runs plus the no-intervention
// baseline.
func inFig6(o, c gridCell, all bool) bool {
	return (all || o.app == c.app && o.fault == c.fault) &&
		(o.scheme == prepare.SchemeNone || o.policy == prepare.ScalingFirst)
}

// fig6Mean is the mean SLO violation time of scheme s over the first
// pass's Figure 6 runs of c's cell (of every cell when all is set).
func (g *grid) fig6Mean(c gridCell, s prepare.Scheme, all bool) float64 {
	return g.meanViolation(func(o gridCell) bool { return o.scheme == s && inFig6(o, c, all) })
}

// fig6Cells calls fn once per (application, fault) cell of the grid.
func (g *grid) fig6Cells(fn func(c gridCell)) {
	seen := map[[2]int]bool{}
	for _, c := range g.cells {
		if k := [2]int{int(c.app), int(c.fault)}; !seen[k] {
			seen[k] = true
			fn(c)
		}
	}
}

// verify asserts Figure 6's shape on the first pass. Over the whole
// grid the mean SLO violation time must order PREPARE <= reactive <=
// no intervention, and in every (application, fault) cell both managed
// schemes must beat no intervention. PREPARE <= reactive cell by cell
// holds for the seeds EXPERIMENTS.md reports but not for every seed (the
// RUBiS bottleneck cell flips on about half of them), so those cells
// are counted in the report, not failed. A broken comparison fails
// every run it rests on.
func (g *grid) verify() (int64, []string) {
	if len(g.first) != len(g.scs) {
		return 1, []string{"the first pass did not finish"}
	}
	var failed int64
	var notes []string
	fig6Runs := func(c gridCell, all bool) (n int64) {
		for _, o := range g.cells {
			if inFig6(o, c, all) {
				n++
			}
		}
		return n
	}
	none, reactive, prep := g.fig6Mean(gridCell{}, prepare.SchemeNone, true), g.fig6Mean(gridCell{}, prepare.SchemeReactive, true), g.fig6Mean(gridCell{}, prepare.SchemePREPARE, true)
	if !(prep <= reactive && reactive <= none) {
		failed += fig6Runs(gridCell{}, true)
		notes = append(notes, fmt.Sprintf("grid: PREPARE %.1f s <= reactive %.1f s <= none %.1f s does not hold", prep, reactive, none))
	}
	g.fig6Cells(func(c gridCell) {
		none, reactive, prep := g.fig6Mean(c, prepare.SchemeNone, false), g.fig6Mean(c, prepare.SchemeReactive, false), g.fig6Mean(c, prepare.SchemePREPARE, false)
		if prep > none || reactive > none {
			failed += fig6Runs(c, false)
			notes = append(notes, fmt.Sprintf("%v/%v: PREPARE %.1f s and reactive %.1f s must not exceed none %.1f s", c.app, c.fault, prep, reactive, none))
		}
	})
	return failed, notes
}

// digest fingerprints the first pass: violation time, alert and
// prevention-step counts of every run, in grid order.
func (g *grid) digest(int64) string {
	h := sha256.New()
	for _, r := range g.first {
		fmt.Fprintf(h, "%d|%d|%d|%d\n", r.EvalViolationSeconds, r.TotalViolationSeconds, len(r.Alerts), len(r.Steps))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (g *grid) horizon() int64 { return 0 }

func (g *grid) close() {}
