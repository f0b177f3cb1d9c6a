package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"

	"prepare/benchmark/stats"
)

// stamp records where and how a report was measured.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func makeStamp(seed int64, seconds float64, sz sizing) stamp {
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds, Smoke: sz.smoke,
	}
}

func printStamp(seed int64, seconds float64, sz sizing) {
	s := makeStamp(seed, seconds, sz)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g smoke=%t\n", s.NProc, s.GOMAXPROCS, s.GoVersion, s.Seed, s.Seconds, s.Smoke)
}

// printOutcome prints one run as an aligned table: the declared metrics
// of the pass, then the workload's own named numbers, then any notes on
// failed operations.
func printOutcome(name string, seed int64, traceArg int, out outcome) {
	fmt.Printf("\n== %s seed=%d trace=%d: correct=%t attempted=%d failed=%d\n", name, seed, traceArg, out.Correct, out.Attempted, out.Failed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	decls := declByName(endToEnd)
	if traceArg == 1 {
		decls = declByName(perLayer())
	}
	for _, n := range sortedNames(out.Metrics) {
		v, d := out.Metrics[n], decls[n]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("bound %g%%", 100*d.Bound)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", n, v.Value, v.Unit, d.Better, bound)
	}
	for _, dt := range out.details {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t%s\t\t\n", dt.name, dt.value, dt.unit)
	}
	tw.Flush()
	for _, note := range out.notes {
		fmt.Printf("  ! %s\n", note)
	}
}

// printSpreads prints min, median and max of every end-to-end metric
// over the repeated runs with the driver's steadiness measure (quartile
// distance over median), and returns the workload/metric pairs whose
// spread exceeds the metric's bound. Set-up time is exempt, as it is
// for the driver.
func printSpreads(selected []workload, series map[string]map[string][]float64) []string {
	var unsteady []string
	fmt.Printf("\n== spread over the repeated runs\n")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  workload\tmetric\tmin\tmedian\tmax\tspread\tbound\t\n")
	for _, w := range selected {
		for _, d := range endToEnd {
			xs := stats.Sorted(series[w.name][d.Name])
			if len(xs) < 2 {
				continue
			}
			spread := stats.Spread(xs)
			mark := ""
			if spread > d.Bound && d.Name != "setup_s" {
				mark = "UNSTEADY"
				unsteady = append(unsteady, w.name+"/"+d.Name)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%g%%\t%s\n", w.name, d.Name, xs[0], stats.Median(xs), xs[len(xs)-1], 100*spread, 100*d.Bound, mark)
		}
	}
	tw.Flush()
	sort.Strings(unsteady)
	return unsteady
}

// sortedNames returns the metric names of an outcome in order.
func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
