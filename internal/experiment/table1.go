package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prepare/internal/bayes"
	"prepare/internal/cloudsim"
	"prepare/internal/columnar"
	"prepare/internal/markov"
	"prepare/internal/metrics"
	"prepare/internal/monitor"
	"prepare/internal/pool"
	"prepare/internal/predict"
	"prepare/internal/simclock"
)

// Table1Row is one row of the paper's overhead table.
type Table1Row struct {
	Module string
	// Paper is the cost the paper reports on its 2012 testbed.
	Paper string
	// Measured is this implementation's cost (wall clock for model
	// operations; the simulation constant for actuations).
	Measured string
}

// Table1 measures the CPU cost of each PREPARE module, mirroring the
// paper's Table I. Model operations are timed over `rounds` repetitions
// of the same 600-sample/13-attribute workload the paper used; actuation
// rows report the simulated latency constants. The five module timings
// run concurrently on the package worker pool; each measurement times
// its own repetition loop, so per-op figures stay comparable (on a
// heavily loaded machine, pool.SetDefaultWorkers(1) restores fully serial
// timing).
func Table1(rounds int) ([]Table1Row, error) {
	if rounds < 1 {
		rounds = 50
	}

	rows, labels, err := table1TrainingData()
	if err != nil {
		return nil, err
	}

	timings := []func() (string, error){
		func() (string, error) { return timeMonitoring(rounds) },
		func() (string, error) { return timeMarkovTraining(rows, predict.SimpleMarkov, rounds) },
		func() (string, error) { return timeMarkovTraining(rows, predict.TwoDependent, rounds) },
		func() (string, error) { return timeTANTraining(rows, labels, rounds) },
		func() (string, error) { return timePrediction(rows, labels, rounds) },
	}
	measured := make([]string, len(timings))
	err = pool.Runner{}.ForEach(context.Background(), len(timings), func(_ context.Context, i int) error {
		m, err := timings[i]()
		if err != nil {
			return fmt.Errorf("experiment: table1 timing %d: %w", i, err)
		}
		measured[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}

	return []Table1Row{
		{"VM monitoring (13 attributes)", "4.68 ms", measured[0]},
		{"Simple Markov model training (600 samples)", "61.0 ms", measured[1]},
		{"2-dep. Markov model training (600 samples)", "135.1 ms", measured[2]},
		{"TAN model training (600 samples)", "4.0 ms", measured[3]},
		{"Anomaly prediction", "1.3 ms", measured[4]},
		{"CPU resource scaling", "107.0 ms", fmt.Sprintf("%.0f ms (simulated)", cloudsim.CPUScalingLatencyMS)},
		{"Memory resource scaling", "116.0 ms", fmt.Sprintf("%.0f ms (simulated)", cloudsim.MemScalingLatencyMS)},
		{"Live VM migration (512MB memory)", "8.56 s", fmt.Sprintf("%d s (simulated)", cloudsim.MigrationSeconds(512))},
	}, nil
}

// FormatTable1 renders Table I as text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table I: PREPARE system overhead measurements")
	fmt.Fprintf(&b, "%-46s %14s %22s\n", "module", "paper", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-46s %14s %22s\n", r.Module, r.Paper, r.Measured)
	}
	return b.String()
}

func table1TrainingData() ([][]float64, []metrics.Label, error) {
	// Deterministic 600-sample fixture with an anomaly episode.
	rows := make([][]float64, 600)
	labels := make([]metrics.Label, 600)
	for i := range rows {
		row := make([]float64, metrics.NumAttributes)
		for j := range row {
			row[j] = float64(100 + j*10 + (i*7+j*3)%17)
		}
		if i >= 200 && i < 400 {
			row[metrics.FreeMem.Index()] = float64(10 + i%13)
			row[metrics.CPUTotal.Index()] = float64(92 + i%7)
			labels[i] = metrics.LabelAbnormal
		} else {
			labels[i] = metrics.LabelNormal
		}
		rows[i] = row
	}
	return rows, labels, nil
}

func timeMonitoring(rounds int) (string, error) {
	cluster := cloudsim.NewCluster()
	if _, err := cluster.AddDefaultHost("h1"); err != nil {
		return "", err
	}
	vm, err := cluster.PlaceVM("vm1", "h1", 100, 512)
	if err != nil {
		return "", err
	}
	vm.CPUUsage = 50
	vm.WorkingSetMB = 300
	sub, err := cloudsim.NewSubstrate(cluster, []cloudsim.VMID{"vm1"})
	if err != nil {
		return "", err
	}
	sampler, err := monitor.NewSampler(sub, []cloudsim.VMID{"vm1"}, monitor.Config{Seed: 1})
	if err != nil {
		return "", err
	}
	store, err := columnar.New(1, 1)
	if err != nil {
		return "", err
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		sampler.Advance(simclock.Time(i))
		if err := sampler.CollectColumnar(simclock.Time(i), metrics.LabelNormal, store); err != nil {
			return "", err
		}
	}
	return perOp(time.Since(start), rounds), nil
}

func timeMarkovTraining(rows [][]float64, order predict.MarkovOrder, rounds int) (string, error) {
	// Pre-discretize, as in the bench: training cost = chain fitting.
	seqs := make([][]int, metrics.NumAttributes)
	for j := 0; j < metrics.NumAttributes; j++ {
		col := make([]float64, len(rows))
		for i := range rows {
			col[i] = rows[i][j]
		}
		d, err := metrics.NewEqualWidth(col, 8)
		if err != nil {
			return "", err
		}
		seq := make([]int, len(rows))
		for i := range col {
			seq[i] = d.Bin(col[i])
		}
		seqs[j] = seq
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for j := range seqs {
			if order == predict.SimpleMarkov {
				ch, err := markov.NewSimpleChain(8)
				if err != nil {
					return "", err
				}
				if err := ch.Fit(seqs[j]); err != nil {
					return "", err
				}
			} else {
				ch, err := markov.NewTwoDepChain(8)
				if err != nil {
					return "", err
				}
				if err := ch.Fit(seqs[j]); err != nil {
					return "", err
				}
			}
		}
	}
	return perOp(time.Since(start), rounds), nil
}

func timeTANTraining(rows [][]float64, labels []metrics.Label, rounds int) (string, error) {
	binsPer := make([]int, metrics.NumAttributes)
	for j := range binsPer {
		binsPer[j] = 8
	}
	binned := make([][]int, len(rows))
	for i, row := range rows {
		binned[i] = make([]int, len(row))
		for j, v := range row {
			binned[i][j] = int(v) % 8
			if binned[i][j] < 0 {
				binned[i][j] += 8
			}
		}
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		table, err := bayes.NewCountTable(binsPer)
		if err != nil {
			return "", err
		}
		for i, b := range binned {
			if err := table.Add(b, labels[i] == metrics.LabelAbnormal); err != nil {
				return "", err
			}
		}
		if _, err := bayes.TrainFromCounts(table, bayes.Options{}); err != nil {
			return "", err
		}
	}
	return perOp(time.Since(start), rounds), nil
}

func timePrediction(rows [][]float64, labels []metrics.Label, rounds int) (string, error) {
	p, err := predict.New(predict.Config{}, predict.AttributeNames())
	if err != nil {
		return "", err
	}
	if err := p.Train(rows, labels); err != nil {
		return "", err
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if _, err := p.PredictWindow(120); err != nil {
			return "", err
		}
	}
	return perOp(time.Since(start), rounds), nil
}

func perOp(total time.Duration, rounds int) string {
	per := total / time.Duration(rounds)
	switch {
	case per >= time.Millisecond:
		return fmt.Sprintf("%.2f ms", float64(per)/float64(time.Millisecond))
	case per >= time.Microsecond:
		return fmt.Sprintf("%.1f µs", float64(per)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%d ns", per.Nanoseconds())
	}
}
