package experiment

import (
	"fmt"
	"io"

	"prepare/internal/control"
	"prepare/internal/detector"
	"prepare/internal/faults"
	"prepare/internal/prevent"
)

// ReportOptions tunes the full-evaluation report.
type ReportOptions struct {
	// Seeds is the number of repetitions for the violation-time figures
	// (default 3; the paper uses 5).
	Seeds int
	// Seed is the base random seed (default 100).
	Seed int64
	// SkipMigration drops the Figure 8 section (halves the runtime).
	SkipMigration bool
}

// WriteReport runs the paper's full evaluation and writes a markdown
// report with every figure and table, mirroring EXPERIMENTS.md but from
// live runs. It is the one-command reproducibility artifact:
//
//	go run ./cmd/preparesim -experiment report > report.md
func WriteReport(w io.Writer, opts ReportOptions) error {
	if opts.Seeds == 0 {
		opts.Seeds = 3
	}
	if opts.Seed == 0 {
		opts.Seed = 100
	}

	fmt.Fprintf(w, "# PREPARE reproduction report\n\n")
	fmt.Fprintf(w, "Seeds %d..%d, %d repetitions per violation-time cell.\n\n",
		opts.Seed, opts.Seed+int64(opts.Seeds)-1, opts.Seeds)

	// Figure 6.
	cells, err := FigureSLOViolation(prevent.ScalingFirst, opts.Seeds, opts.Seed)
	if err != nil {
		return fmt.Errorf("experiment: report fig6: %w", err)
	}
	fmt.Fprint(w, "## Figure 6 — SLO violation time (scaling)\n\n```\n")
	fmt.Fprint(w, FormatViolationCells("", cells))
	fmt.Fprint(w, "```\n\n")

	// Figure 8.
	if !opts.SkipMigration {
		cells, err = FigureSLOViolation(prevent.MigrationOnly, opts.Seeds, opts.Seed)
		if err != nil {
			return fmt.Errorf("experiment: report fig8: %w", err)
		}
		fmt.Fprint(w, "## Figure 8 — SLO violation time (migration)\n\n```\n")
		fmt.Fprint(w, FormatViolationCells("", cells))
		fmt.Fprint(w, "```\n\n")
	}

	// Figure 7(a): the memleak/System S trace close-up.
	series, err := FigureTraces(SystemS, faults.MemoryLeak, prevent.ScalingFirst, opts.Seed)
	if err != nil {
		return fmt.Errorf("experiment: report fig7: %w", err)
	}
	fmt.Fprint(w, "## Figure 7(a) — throughput trace, memleak / System S (scaling)\n\n```\n")
	fmt.Fprint(w, FormatTraces("", "Ktuples/s", series, 20))
	fmt.Fprint(w, "```\n\n")

	// Figure 10.
	curves, err := FigurePerComponentVsMonolithic(SystemS, faults.MemoryLeak, opts.Seed)
	if err != nil {
		return fmt.Errorf("experiment: report fig10: %w", err)
	}
	fmt.Fprint(w, "## Figure 10 — per-component vs monolithic (memleak / System S)\n\n```\n")
	fmt.Fprint(w, FormatAccuracyCurves("", curves))
	fmt.Fprint(w, "```\n\n")

	// Figure 11 (the paper's 11(b) cell).
	curves, err = FigureMarkovComparison(RUBiS, faults.Bottleneck, opts.Seed)
	if err != nil {
		return fmt.Errorf("experiment: report fig11: %w", err)
	}
	fmt.Fprint(w, "## Figure 11 — 2-dep vs simple Markov (bottleneck / RUBiS)\n\n```\n")
	fmt.Fprint(w, FormatAccuracyCurves("", curves))
	fmt.Fprint(w, "```\n\n")

	// Figure 12.
	curves, err = FigureAlarmFiltering(opts.Seed)
	if err != nil {
		return fmt.Errorf("experiment: report fig12: %w", err)
	}
	fmt.Fprint(w, "## Figure 12 — alarm filter settings (bottleneck / RUBiS)\n\n```\n")
	fmt.Fprint(w, FormatAccuracyCurves("", curves))
	fmt.Fprint(w, "```\n\n")

	// Figure 13.
	curves, err = FigureSamplingInterval(opts.Seed)
	if err != nil {
		return fmt.Errorf("experiment: report fig13: %w", err)
	}
	fmt.Fprint(w, "## Figure 13 — sampling intervals (bottleneck / RUBiS)\n\n```\n")
	fmt.Fprint(w, FormatAccuracyCurves("", curves))
	fmt.Fprint(w, "```\n\n")

	// Table I.
	rows, err := Table1(100)
	if err != nil {
		return fmt.Errorf("experiment: report table1: %w", err)
	}
	fmt.Fprint(w, "## Table I — system overhead\n\n```\n")
	fmt.Fprint(w, FormatTable1(rows))
	fmt.Fprint(w, "```\n\n")

	// Extension: first-occurrence prevention.
	fmt.Fprint(w, "## Extension — unseen anomalies (Section V)\n\n```\n")
	base := Scenario{App: RUBiS, Fault: faults.MemoryLeak, Seed: opts.Seed, SkipFirstInjection: true}
	variants := []struct {
		name     string
		scheme   control.Scheme
		detector detector.Spec
	}{
		{"without-intervention", control.SchemeNone, detector.Spec{}},
		{"prepare-supervised", control.SchemePREPARE, detector.Spec{}},
		{"prepare-unsupervised", control.SchemePREPARE, detector.Spec{Kind: detector.KindKMeans}},
	}
	scenarios := make([]Scenario, len(variants))
	for i, variant := range variants {
		scenarios[i] = base
		scenarios[i].Scheme = variant.scheme
		scenarios[i].Detector = variant.detector
	}
	results, err := RunAll(scenarios, BatchOptions{})
	if err != nil {
		return fmt.Errorf("experiment: report unseen: %w", err)
	}
	for i, variant := range variants {
		fmt.Fprintf(w, "%-24s violation %4ds, actions %d\n",
			variant.name, results[i].EvalViolationSeconds, len(results[i].Steps))
	}
	fmt.Fprint(w, "```\n")
	return nil
}
