// Command preparesim runs the PREPARE reproduction experiments and
// prints the paper's tables and figures as text.
//
// Usage:
//
//	preparesim -experiment fig6 [-seeds 5] [-seed 100]
//	preparesim -experiment fig7 [-app systems] [-fault memleak]
//	preparesim -experiment fig8
//	preparesim -experiment fig9 [-app rubis] [-fault cpuhog]
//	preparesim -experiment fig10 [-app systems] [-fault memleak]
//	preparesim -experiment fig11 [-app systems] [-fault memleak]
//	preparesim -experiment fig12
//	preparesim -experiment fig13
//	preparesim -experiment all
//	preparesim -experiment run -app rubis -fault memleak -scheme prepare
//	preparesim -experiment detectors [-app systems] [-detector tan,ewma,ensemble:tan+ewma@1]
//	preparesim -engine -tenants 8 [-shards 4] [-app systems] [-fault memleak]
//	preparesim -serve -addr 127.0.0.1:8080 [-tenants 4 -vms 4] [-chaos]
//
// The -serve mode hosts the controller service: the sharded engine
// behind an asynchronous ingest→predict→actuate pipeline with an
// HTTP/JSON API (POST /v1/samples, GET /v1/alerts, /v1/audit,
// /v1/tenants/{id}/model, /v1/checkpoint, /healthz, /readyz) until
// SIGINT/SIGTERM.
//
// The -engine mode runs N independent tenants (one world and control
// loop each) on the sharded multi-tenant engine; output is identical
// for any -shards/-parallel value.
//
// Add -chaos to the run, engine and serve modes to interpose a deterministic
// fault-injecting decorator between the control loop and the simulator:
//
//	preparesim -experiment run -app systems -fault memleak -chaos -chaos-rate 0.02
//	preparesim -engine -tenants 4 -chaos -chaos-seed 7
//
// Chaos drops/freezes/corrupts metric samples, fails actuations
// transiently, and stalls migrations at -chaos-rate per call, keyed by
// -chaos-seed (0 derives one from -seed), so a given seed reproduces
// the exact same fault schedule.
//
// The run, engine and serve modes accept retraining knobs: -retrain N updates
// the prediction models every N simulated seconds, and -history-window M
// bounds per-VM sample history to a ring of M samples:
//
//	preparesim -experiment run -app rubis -fault memleak -retrain 600
//	preparesim -engine -tenants 4 -retrain 600 -history-window 720
//
// The run and engine modes accept -detector to swap the anomaly
// detector driving the control loop: tan (the paper's supervised
// Markov+TAN pipeline, the default), kmeans (unsupervised),
// ewma (Holt forecast-error), zrobust (threshold-free z-score), or a
// voting ensemble like ensemble:tan+ewma@1. The detectors experiment
// runs every fault class under a comma-separated list of detector
// specs and prints a NAB-style window-scored comparison table:
//
//	preparesim -experiment run -app rubis -fault memleak -detector ensemble:tan+ewma@1
//	preparesim -experiment detectors -app systems -detector tan,ewma,ensemble:tan+ewma@1
//
// The run and engine modes accept -policy to pick the prevention action
// (scaling-first or migration); a migration goes to the host the
// substrate picks, the least-loaded one that fits:
//
//	preparesim -experiment run -app systems -fault cpuhog -policy migration
//
// A mode-specific flag is an error in every mode that does not read it.
//
// Profiling: -cpuprofile FILE and -memprofile FILE write pprof
// profiles covering the whole invocation:
//
//	preparesim -engine -tenants 8 -cpuprofile cpu.out -memprofile mem.out
//
// All multi-run experiments accept -parallel N to size the worker pool
// (0, the default, uses GOMAXPROCS). Output is identical for any value.
//
// Add -telemetry to collect control-loop telemetry and print an
// end-of-run report to stderr (-telemetry-format text|json|prom), and
// -telemetry-addr host:port to also serve live /metrics (Prometheus
// text) and /trace (JSON events) over HTTP while the run is going.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"prepare"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "preparesim:", err)
		os.Exit(1)
	}
}

type options struct {
	experiment      string
	app             string
	fault           string
	scheme          string
	format          string
	seeds           int
	seed            int64
	parallel        int
	engine          bool
	tenants         int
	shards          int
	serve           bool
	addr            string
	vms             int
	telemetry       bool
	telemetryFormat string
	telemetryAddr   string
	chaos           bool
	chaosSeed       int64
	chaosRate       float64
	retrainS        int64
	historyWindow   int
	detector        string
	policy          string
	cpuProfile      string
	memProfile      string
}

// applyRetrain copies the retraining flags onto a scenario for the run
// and engine modes (the figure experiments keep the paper's fixed
// train-once protocol).
func (o options) applyRetrain(sc prepare.Scenario) (prepare.Scenario, error) {
	sc.RetrainIntervalS = o.retrainS
	sc.HistoryWindowSamples = o.historyWindow
	spec, err := prepare.ParseDetectorSpec(o.detector)
	if err != nil {
		return sc, err
	}
	sc.Detector = spec
	policy, ok := policyByName(o.policy)
	if !ok {
		return sc, fmt.Errorf("unknown policy %q (want scaling-first or migration)", o.policy)
	}
	sc.Policy = policy
	return sc, nil
}

// modeFlags maps each mode-specific flag to the modes that read it.
// Every other mode would silently ignore it, so run rejects it there.
var modeFlags = map[string][]string{
	"detector":       {"-experiment run", "-engine", "-experiment detectors"},
	"retrain":        {"-experiment run", "-engine", "-serve"},
	"history-window": {"-experiment run", "-engine", "-serve"},
	"chaos":          {"-experiment run", "-engine", "-serve"},
	"chaos-seed":     {"-experiment run", "-engine", "-serve"},
	"chaos-rate":     {"-experiment run", "-engine", "-serve"},
	"policy":         {"-experiment run", "-engine"},
}

// mode names the invocation's mode as modeFlags spells it.
func (o options) mode() string {
	if o.serve {
		return "-serve"
	}
	if o.experiment == "engine" {
		return "-engine"
	}
	return "-experiment " + o.experiment
}

// checkModeFlags rejects every flag set on the command line that
// modeFlags says the invocation's mode does not read. Visit sees only
// flags the user set, so an explicit default value is caught too.
func checkModeFlags(fs *flag.FlagSet, mode string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		modes, ok := modeFlags[f.Name]
		if err == nil && ok && !slices.Contains(modes, mode) {
			err = fmt.Errorf("-%s is not read by %s (only by %s)", f.Name, mode, strings.Join(modes, ", "))
		}
	})
	return err
}

// chaosPlan builds the run's fault-injection plan from the flags (the
// zero plan when -chaos is absent).
func (o options) chaosPlan() prepare.ChaosPlan {
	if !o.chaos {
		return prepare.ChaosPlan{}
	}
	return prepare.UniformChaos(o.chaosSeed, o.chaosRate)
}

func run(args []string) error {
	fs := flag.NewFlagSet("preparesim", flag.ContinueOnError)
	opts := options{}
	fs.StringVar(&opts.experiment, "experiment", "fig6",
		"which experiment to run: fig6..fig13, table1, unseen, detectors, report, run, or all")
	fs.StringVar(&opts.app, "app", "systems", "application: systems or rubis")
	fs.StringVar(&opts.fault, "fault", "memleak", "fault: memleak, cpuhog or bottleneck")
	fs.StringVar(&opts.scheme, "scheme", "prepare",
		"management scheme for -experiment run: none, reactive or prepare")
	fs.StringVar(&opts.format, "format", "text", "output format: text, csv or svg")
	fs.IntVar(&opts.seeds, "seeds", 5, "repetitions per cell (fig6/fig8)")
	fs.Int64Var(&opts.seed, "seed", 100, "base random seed")
	fs.IntVar(&opts.parallel, "parallel", 0,
		"worker-pool size for multi-run sweeps (0 = GOMAXPROCS; results are identical for any value)")
	fs.BoolVar(&opts.engine, "engine", false,
		"run the sharded multi-tenant engine (shorthand for -experiment engine)")
	fs.IntVar(&opts.tenants, "tenants", 4, "tenant count for the engine mode")
	fs.IntVar(&opts.shards, "shards", 0,
		"engine shard count (0 = worker-pool default; results are identical for any value)")
	fs.BoolVar(&opts.serve, "serve", false,
		"run the controller service: async ingest→predict→actuate pipeline with an HTTP API on -addr")
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:8080", "listen address for -serve")
	fs.IntVar(&opts.vms, "vms", 4, "VMs per tenant for the serve mode's synthetic topology")
	fs.BoolVar(&opts.telemetry, "telemetry", false,
		"collect control-loop telemetry and print an end-of-run report to stderr")
	fs.StringVar(&opts.telemetryFormat, "telemetry-format", "text",
		"end-of-run telemetry report format: text, json or prom")
	fs.StringVar(&opts.telemetryAddr, "telemetry-addr", "",
		"serve live telemetry over HTTP on this address (/metrics, /trace); implies -telemetry")
	fs.BoolVar(&opts.chaos, "chaos", false,
		"inject deterministic substrate faults into the run, engine and serve modes")
	fs.Int64Var(&opts.chaosSeed, "chaos-seed", 0,
		"chaos fault-schedule seed (0 = derive from -seed)")
	fs.Float64Var(&opts.chaosRate, "chaos-rate", 0.02,
		"per-call probability of each chaos fault kind")
	fs.Int64Var(&opts.retrainS, "retrain", 0,
		"retrain the prediction models every N simulated seconds in the run, engine and serve modes (0 = train once)")
	fs.IntVar(&opts.historyWindow, "history-window", 0,
		"bound per-VM sample history to a ring of N samples (0 = unbounded)")
	fs.StringVar(&opts.detector, "detector", "",
		"anomaly detector for the run, engine and detectors modes: tan (default), kmeans, ewma, zrobust, or an ensemble spec like ensemble:tan+ewma@1")
	fs.StringVar(&opts.policy, "policy", "",
		"prevention policy for the run and engine modes: scaling-first (default) or migration")
	fs.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&opts.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.cpuProfile != "" {
		f, err := os.Create(opts.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if opts.memProfile != "" {
		defer func() {
			f, err := os.Create(opts.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "preparesim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "preparesim: memprofile:", err)
			}
		}()
	}
	prepare.SetParallelism(opts.parallel)
	if opts.engine {
		opts.experiment = "engine"
	}
	if err := checkModeFlags(fs, opts.mode()); err != nil {
		return err
	}

	if opts.telemetry || opts.telemetryAddr != "" {
		switch opts.telemetryFormat {
		case "text", "json", "prom":
		default:
			return fmt.Errorf("unknown telemetry format %q (want text, json or prom)", opts.telemetryFormat)
		}
		prepare.EnableTelemetry()
		defer reportTelemetry(opts.telemetryFormat)
	}
	if opts.telemetryAddr != "" {
		ln, err := net.Listen("tcp", opts.telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		srv := &http.Server{Handler: prepare.TelemetryHandler()}
		go srv.Serve(ln) //nolint:errcheck // shut down via Close below
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "preparesim: telemetry at http://%s/metrics and /trace\n", ln.Addr())
	}

	if opts.serve {
		return runServe(opts)
	}

	switch opts.experiment {
	case "all":
		for _, exp := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table1"} {
			o := opts
			o.experiment = exp
			if err := dispatch(o); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return dispatch(opts)
	}
}

func dispatch(opts options) error {
	app, ok := appByName(opts.app)
	if !ok {
		return fmt.Errorf("unknown app %q (want systems or rubis)", opts.app)
	}
	fault, ok := faultByName(opts.fault)
	if !ok {
		return fmt.Errorf("unknown fault %q (want memleak, cpuhog or bottleneck)", opts.fault)
	}

	switch opts.experiment {
	case "fig6", "fig8":
		var (
			cells []prepare.ViolationCell
			err   error
			title string
		)
		if opts.experiment == "fig6" {
			cells, err = prepare.Figure6(opts.seeds, opts.seed)
			title = "Figure 6: SLO violation time, elastic resource scaling prevention"
		} else {
			cells, err = prepare.Figure8(opts.seeds, opts.seed)
			title = "Figure 8: SLO violation time, live VM migration prevention"
		}
		if err != nil {
			return err
		}
		switch opts.format {
		case "csv":
			return prepare.WriteViolationCSV(os.Stdout, cells)
		case "svg":
			return prepare.WriteViolationSVG(os.Stdout, title, cells)
		}
		fmt.Print(prepare.FormatViolationCells(title, cells))
	case "fig7", "fig9":
		var (
			series []prepare.TraceSeries
			err    error
		)
		if opts.experiment == "fig7" {
			series, err = prepare.Figure7(app, fault, opts.seed)
		} else {
			series, err = prepare.Figure9(app, fault, opts.seed)
		}
		if err != nil {
			return err
		}
		switch opts.format {
		case "csv":
			return prepare.WriteTraceCSV(os.Stdout, series)
		case "svg":
			return prepare.WriteTraceSVG(os.Stdout,
				fmt.Sprintf("%s: %s / %s", strings.ToUpper(opts.experiment), opts.app, opts.fault),
				metricName(app), series)
		}
		fmt.Print(prepare.FormatTraces(
			fmt.Sprintf("%s: SLO metric trace, %s / %s", strings.ToUpper(opts.experiment), opts.app, opts.fault),
			metricName(app), series, 15))
	case "fig10":
		curves, err := prepare.Figure10(app, fault, opts.seed)
		if err != nil {
			return err
		}
		switch opts.format {
		case "csv":
			return prepare.WriteAccuracyCSV(os.Stdout, curves)
		case "svg":
			return prepare.WriteAccuracySVG(os.Stdout, fmt.Sprintf("Figure 10: per-component vs monolithic, %s / %s", opts.app, opts.fault), curves)
		}
		fmt.Print(prepare.FormatAccuracyCurves(
			fmt.Sprintf("Figure 10: per-component vs monolithic, %s / %s", opts.app, opts.fault), curves))
	case "fig11":
		curves, err := prepare.Figure11(app, fault, opts.seed)
		if err != nil {
			return err
		}
		switch opts.format {
		case "csv":
			return prepare.WriteAccuracyCSV(os.Stdout, curves)
		case "svg":
			return prepare.WriteAccuracySVG(os.Stdout, fmt.Sprintf("Figure 11: 2-dependent vs simple Markov, %s / %s", opts.app, opts.fault), curves)
		}
		fmt.Print(prepare.FormatAccuracyCurves(
			fmt.Sprintf("Figure 11: 2-dependent vs simple Markov, %s / %s", opts.app, opts.fault), curves))
	case "fig12":
		curves, err := prepare.Figure12(opts.seed)
		if err != nil {
			return err
		}
		switch opts.format {
		case "csv":
			return prepare.WriteAccuracyCSV(os.Stdout, curves)
		case "svg":
			return prepare.WriteAccuracySVG(os.Stdout, "Figure 12: alarm filtering settings (bottleneck / RUBiS)", curves)
		}
		fmt.Print(prepare.FormatAccuracyCurves(
			"Figure 12: alarm filtering settings (bottleneck / RUBiS)", curves))
	case "table1":
		rows, err := prepare.Table1(200)
		if err != nil {
			return err
		}
		fmt.Print(prepare.FormatTable1(rows))
	case "fig13":
		curves, err := prepare.Figure13(opts.seed)
		if err != nil {
			return err
		}
		switch opts.format {
		case "csv":
			return prepare.WriteAccuracyCSV(os.Stdout, curves)
		case "svg":
			return prepare.WriteAccuracySVG(os.Stdout, "Figure 13: sampling intervals (bottleneck / RUBiS)", curves)
		}
		fmt.Print(prepare.FormatAccuracyCurves(
			"Figure 13: sampling intervals (bottleneck / RUBiS)", curves))
	case "report":
		return prepare.WriteReport(os.Stdout, prepare.ReportOptions{
			Seeds: opts.seeds, Seed: opts.seed,
		})
	case "unseen":
		fmt.Printf("Section V extension: first-occurrence prevention (%s %s)\n", opts.app, opts.fault)
		base := prepare.Scenario{
			App: app, Fault: fault, Seed: opts.seed, SkipFirstInjection: true,
		}
		for _, variant := range []struct {
			name     string
			scheme   prepare.Scheme
			detector string
		}{
			{"without-intervention", prepare.SchemeNone, prepare.DetectorTAN},
			{"prepare-supervised", prepare.SchemePREPARE, prepare.DetectorTAN},
			{"prepare-unsupervised", prepare.SchemePREPARE, prepare.DetectorKMeans},
		} {
			sc := base
			sc.Scheme = variant.scheme
			sc.Detector = prepare.DetectorSpec{Kind: variant.detector}
			res, err := prepare.Run(sc)
			if err != nil {
				return err
			}
			fmt.Printf("%-24s violation %4ds, actions %d\n",
				variant.name, res.EvalViolationSeconds, len(res.Steps))
		}
	case "detectors":
		list := opts.detector
		if list == "" {
			list = "tan,ewma,ensemble:tan+ewma@1,ensemble:tan+ewma"
		}
		var specs []prepare.DetectorSpec
		for _, s := range strings.Split(list, ",") {
			spec, err := prepare.ParseDetectorSpec(s)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
		runs, err := prepare.CompareDetectors(
			prepare.Scenario{App: app, Seed: opts.seed},
			[]prepare.FaultKind{prepare.MemoryLeak, prepare.CPUHog, prepare.Bottleneck},
			specs, prepare.NABOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("Detector comparison, NAB-style window scoring: %s (seed %d)\n", opts.app, opts.seed)
		fmt.Print(prepare.FormatDetectorTable(runs))
	case "run":
		scheme, ok := schemeByName(opts.scheme)
		if !ok {
			return fmt.Errorf("unknown scheme %q (want none, reactive or prepare)", opts.scheme)
		}
		sc, err := opts.applyRetrain(prepare.Scenario{
			App: app, Fault: fault, Scheme: scheme, Seed: opts.seed,
			Chaos: opts.chaosPlan(),
		})
		if err != nil {
			return err
		}
		res, err := prepare.Run(sc)
		if err != nil {
			return err
		}
		printRun(res)
	case "engine":
		scheme, ok := schemeByName(opts.scheme)
		if !ok {
			return fmt.Errorf("unknown scheme %q (want none, reactive or prepare)", opts.scheme)
		}
		if opts.tenants < 1 {
			return fmt.Errorf("-tenants must be at least 1, got %d", opts.tenants)
		}
		sc, err := opts.applyRetrain(prepare.Scenario{
			App: app, Fault: fault, Scheme: scheme, Seed: opts.seed,
			Chaos: opts.chaosPlan(),
		})
		if err != nil {
			return err
		}
		res, err := prepare.RunEngine(
			prepare.MultiTenant(opts.tenants, sc),
			prepare.EngineOptions{Shards: opts.shards, Workers: opts.parallel})
		if err != nil {
			return err
		}
		printEngine(res)
	default:
		return fmt.Errorf("unknown experiment %q", opts.experiment)
	}
	return nil
}

// reportTelemetry prints the final telemetry snapshot to stderr so it
// never corrupts the experiment output (csv/svg) on stdout.
func reportTelemetry(format string) {
	snap := prepare.Telemetry()
	var err error
	switch format {
	case "json":
		err = snap.WriteJSON(os.Stderr)
	case "prom":
		err = snap.WritePrometheus(os.Stderr)
	default:
		err = snap.WriteSummary(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "preparesim: telemetry report:", err)
	}
}

func printRun(res prepare.Result) {
	fmt.Printf("scenario: %s / %s / %s (seed %d)\n",
		res.Scenario.App, res.Scenario.Fault, res.Scenario.Scheme, res.Scenario.Seed)
	fmt.Printf("SLO violation time: %ds in evaluation window, %ds total\n",
		res.EvalViolationSeconds, res.TotalViolationSeconds)
	fmt.Printf("confirmed alerts: %d, prevention steps: %d\n", len(res.Alerts), len(res.Steps))
	for _, s := range res.Steps {
		fmt.Printf("  t=%-6v %-10s %-10v %s\n", s.Time, s.VM, s.Kind, s.Detail)
	}
	if n := len(res.ChaosEvents); n > 0 {
		fmt.Printf("chaos: %d faults injected (seed %d)\n", n, res.Scenario.Chaos.Seed)
	}
}

// printEngine prints the multi-tenant engine summary. Shard and worker
// counts are deliberately absent: the output is byte-identical for any
// -shards/-parallel value, which the CI determinism job checks.
func printEngine(res prepare.EngineResult) {
	fmt.Printf("engine: %d tenants\n", len(res.Tenants))
	for _, tr := range res.Tenants {
		fmt.Printf("  %-10s %s/%s/%s seed %-4d violation %4ds eval / %4ds total, alerts %3d, steps %d\n",
			tr.Tenant, tr.Scenario.App, tr.Scenario.Fault, tr.Scenario.Scheme, tr.Scenario.Seed,
			tr.EvalViolationSeconds, tr.TotalViolationSeconds, len(tr.Alerts), len(tr.Steps))
	}
	fmt.Printf("aggregate: alerts %d, prevention steps %d, violation %ds\n",
		len(res.Alerts), len(res.Steps), res.Stats.ViolationSeconds)
	for _, s := range res.Steps {
		fmt.Printf("  t=%-6v %-10s %-10s %-10v %s\n", s.Time, s.Tenant, s.VM, s.Kind, s.Detail)
	}
	chaosFaults := 0
	for _, tr := range res.Tenants {
		chaosFaults += len(tr.ChaosEvents)
	}
	if chaosFaults > 0 {
		fmt.Printf("chaos: %d faults injected across %d tenants\n", chaosFaults, len(res.Tenants))
	}
}

func metricName(app prepare.AppKind) string {
	if app == prepare.SystemS {
		return "throughput Ktuples/s"
	}
	return "avg response time ms"
}

func appByName(name string) (prepare.AppKind, bool) {
	switch name {
	case "systems":
		return prepare.SystemS, true
	case "rubis":
		return prepare.RUBiS, true
	default:
		return 0, false
	}
}

func faultByName(name string) (prepare.FaultKind, bool) {
	switch name {
	case "memleak":
		return prepare.MemoryLeak, true
	case "cpuhog":
		return prepare.CPUHog, true
	case "bottleneck":
		return prepare.Bottleneck, true
	default:
		return 0, false
	}
}

// policyByName maps the -policy flag; the empty string keeps the
// scenario default (scaling-first).
func policyByName(name string) (prepare.Policy, bool) {
	switch name {
	case "":
		return 0, true
	case "scaling-first":
		return prepare.ScalingFirst, true
	case "migration":
		return prepare.MigrationOnly, true
	default:
		return 0, false
	}
}

func schemeByName(name string) (prepare.Scheme, bool) {
	switch name {
	case "none":
		return prepare.SchemeNone, true
	case "reactive":
		return prepare.SchemeReactive, true
	case "prepare":
		return prepare.SchemePREPARE, true
	default:
		return 0, false
	}
}
