// Command benchmark is the repository's standing benchmark: five named
// workloads, five end-to-end metrics every workload reports, and some
// seventy per-layer metrics from probes that replay a workload's
// captured inputs through one layer at a time. README.md beside this
// file says why each workload exists, which per-layer metric should move
// which end-to-end metric, and how to read the trace; BENCHMARK.json at
// the repository root declares the same names to the driver.
//
// One workload, one pass (what the driver runs):
//
//	bash benchmark/run.sh --workload fleet_tan --seed 1 --seconds 10 --trace 0
//
// prints a table and, as the last line of standard output, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer ones with --trace 1. Without --trace
// both passes run; without --workload every workload does; --repeat N
// repeats the selection over N consecutive seeds, prints min, median
// and max of every end-to-end metric, and fails when a spread exceeds
// its bound. The exit code is non-zero whenever an operation failed or
// an output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// maxProcs pins the scheduler to one processor, whatever the machine
// has. The systems under test keep their two shards and two pool
// workers, so the code paths are the ones a larger machine runs, but
// they time-share one processor with the generator. On the two-vCPU
// sandbox this is what makes the numbers repeat: with two processors
// every tick time depended on whether the host happened to run the two
// vCPUs on one core (1.6x apart, changing every few tens of seconds),
// and the concurrent collector on the second vCPU made the
// single-threaded tick slower, not faster. README.md has the
// measurements. The two speed-up probes raise it for their own duration.
const maxProcs = 1

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of every generator (traces, episode staggering, chaos plans)")
		seconds  = flag.Float64("seconds", runSeconds, "length of one timed window")
		traceArg = flag.Int("trace", -1, "0: the untraced pass (end-to-end metrics); 1: the traced pass (per-layer metrics); -1: both")
		repeat   = flag.Int("repeat", 1, "repeat over this many consecutive seeds and check every end-to-end spread against its bound")
		smoke    = flag.Bool("smoke", false, "tiny sizes: checks that everything still runs, measures nothing")
		printMf  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMf {
		os.Stdout.Write(manifest())
		return
	}
	runtime.GOMAXPROCS(maxProcs)
	if err := run(*name, *seed, *seconds, *traceArg, *repeat, sizing{smoke: *smoke}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// outDir is where traces go: benchmark/out, from the repository root or
// from inside benchmark/.
func outDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark/out"
	}
	return "out"
}

func run(name string, seed int64, seconds float64, traceArg, repeat int, sz sizing) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 || repeat < 1 || traceArg < -1 || traceArg > 1 {
		return fmt.Errorf("need -seconds > 0, -repeat >= 1 and -trace 0, 1 or -1")
	}
	selected := workloads()
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	d := time.Duration(seconds * float64(time.Second))
	printStamp(seed, seconds, sz)

	// The driver's shape — one workload, one pass, once — ends with the
	// bare result object.
	if len(selected) == 1 && traceArg >= 0 && repeat == 1 {
		out, err := runOne(selected[0], seed, d, traceArg, sz)
		if err != nil {
			return err
		}
		printOutcome(selected[0].name, seed, traceArg, out)
		line, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !out.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", selected[0].name, out.Failed, out.Attempted)
		}
		return nil
	}

	type runDoc struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Trace    int     `json:"trace"`
		Result   outcome `json:"result"`
	}
	var docs []runDoc
	var failed int64
	for r := 0; r < repeat; r++ {
		for _, w := range selected {
			for tr := 0; tr <= 1; tr++ {
				if traceArg >= 0 && tr != traceArg {
					continue
				}
				out, err := runOne(w, seed+int64(r), d, tr, sz)
				if err != nil {
					return err
				}
				printOutcome(w.name, seed+int64(r), tr, out)
				docs = append(docs, runDoc{w.name, seed + int64(r), tr, out})
				failed += out.Failed
			}
		}
	}
	var unsteady []string
	if repeat > 1 {
		series := map[string]map[string][]float64{}
		for _, doc := range docs {
			if doc.Trace != 0 {
				continue
			}
			if series[doc.Workload] == nil {
				series[doc.Workload] = map[string][]float64{}
			}
			for n, v := range doc.Result.Metrics {
				series[doc.Workload][n] = append(series[doc.Workload][n], v.Value)
			}
		}
		unsteady = printSpreads(selected, series)
	}
	line, err := json.Marshal(struct {
		Stamp stamp    `json:"stamp"`
		Runs  []runDoc `json:"runs"`
	}{makeStamp(seed, seconds, sz), docs})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if len(unsteady) > 0 {
		return fmt.Errorf("spread beyond the bound: %v", unsteady)
	}
	return nil
}

// runOne runs one pass of one workload and checks that it reported
// exactly the metrics BENCHMARK.json declares for that pass.
func runOne(w workload, seed int64, d time.Duration, traceArg int, sz sizing) (outcome, error) {
	var out outcome
	var err error
	decls := endToEnd
	if traceArg == 1 {
		decls = perLayer()
		out, err = runTraced(w, seed, d, sz, outDir())
	} else {
		out, err = runEndToEnd(w, seed, d, sz)
	}
	if err != nil {
		return out, err
	}
	if len(out.Metrics) != len(decls) {
		return out, fmt.Errorf("%s: reported %d metrics, declared %d", w.name, len(out.Metrics), len(decls))
	}
	for _, dcl := range decls {
		v, ok := out.Metrics[dcl.Name]
		if !ok || v.Unit != dcl.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return out, fmt.Errorf("%s: metric %s [%s] is declared but was reported as %+v", w.name, dcl.Name, dcl.Unit, v)
		}
	}
	return out, nil
}
