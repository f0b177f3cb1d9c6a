package experiment

import (
	"context"
	"fmt"

	"prepare/internal/control"
	"prepare/internal/metrics"
	"prepare/internal/pool"
	"prepare/internal/predict"
	"prepare/internal/substrate"
)

// Dataset is the labeled per-VM monitoring data of one run, used for the
// paper's trace-driven prediction accuracy experiments (Figures 10-13).
type Dataset struct {
	PerVM       map[substrate.VMID][]metrics.Sample
	Order       []substrate.VMID
	FaultTarget substrate.VMID
	// TrainAtS splits the data: samples before it train the models,
	// samples after it are replayed for scoring (the second fault
	// injection, per the paper's protocol).
	TrainAtS int64
}

// CollectDataset runs the scenario without intervention and returns its
// labeled monitoring data.
func CollectDataset(sc Scenario) (Dataset, error) {
	sc.Scheme = control.SchemeNone
	res, err := Run(sc)
	if err != nil {
		return Dataset{}, err
	}
	return Dataset{
		PerVM:       res.Dataset,
		Order:       res.VMOrder,
		FaultTarget: res.FaultTarget,
		TrainAtS:    res.Scenario.TrainAtS,
	}, nil
}

// split divides one VM's samples into train and test portions.
func (d Dataset) split(id substrate.VMID) (train, test []metrics.Sample, err error) {
	samples, ok := d.PerVM[id]
	if !ok {
		return nil, nil, fmt.Errorf("experiment: no samples for VM %q", id)
	}
	for _, sm := range samples {
		if sm.Time.Seconds() < d.TrainAtS {
			train = append(train, sm)
		} else {
			test = append(test, sm)
		}
	}
	return train, test, nil
}

// AccuracyPoint is one (look-ahead window, A_T, A_F) measurement.
type AccuracyPoint struct {
	LookaheadS int64
	AT         float64
	AF         float64
	Confusion  predict.Confusion
}

// AccuracyOptions tunes a sweep.
type AccuracyOptions struct {
	// Predict configures the predictors (order, bins, naive classifier).
	Predict predict.Config
	// FilterK/FilterW optionally apply k-of-W alarm filtering to the
	// application-level alert stream before scoring (0 disables).
	FilterK, FilterW int
	// Monolithic merges every VM's attributes into one model instead of
	// the per-component scheme.
	Monolithic bool
}

// AccuracySweep measures application-level anomaly prediction accuracy
// (A_T, A_F per Equation 3) for each look-ahead window, replaying the
// test split of the dataset. Under the per-component scheme the
// application-level alert is the OR over the per-VM predictors (PREPARE
// raises an alert as long as any per-VM predictor raises one); the
// monolithic baseline concatenates all VMs' attributes into one model.
// Look-ahead windows are evaluated concurrently on the package worker
// pool (each window trains and replays its own predictors, so windows
// are independent); point order follows the input.
func AccuracySweep(ds Dataset, lookaheads []int64, opts AccuracyOptions) ([]AccuracyPoint, error) {
	if len(ds.Order) == 0 {
		return nil, fmt.Errorf("experiment: dataset has no VMs")
	}
	if len(lookaheads) == 0 {
		return nil, fmt.Errorf("experiment: at least one look-ahead window is required")
	}
	curves, err := sweepCurves(ds, []curveSpec{{lookaheads: lookaheads, opts: opts}})
	if err != nil {
		return nil, err
	}
	return curves[0].Points, nil
}

// curveSpec names one accuracy-sweep variant of a figure.
type curveSpec struct {
	label      string
	lookaheads []int64
	opts       AccuracyOptions
}

// sweepCurves evaluates every (curve, look-ahead) cell of the given
// sweep variants over one dataset, fanned out as a single flat batch on
// the package worker pool. Curve and point order follow the specs.
func sweepCurves(ds Dataset, specs []curveSpec) ([]AccuracyCurve, error) {
	type cellRef struct{ spec, point int }
	var cells []cellRef
	curves := make([]AccuracyCurve, len(specs))
	for si, sp := range specs {
		curves[si] = AccuracyCurve{Label: sp.label, Points: make([]AccuracyPoint, len(sp.lookaheads))}
		for pi := range sp.lookaheads {
			cells = append(cells, cellRef{spec: si, point: pi})
		}
	}
	err := pool.Runner{}.ForEach(context.Background(), len(cells), func(_ context.Context, i int) error {
		c := cells[i]
		sp := specs[c.spec]
		la := sp.lookaheads[c.point]
		conf, err := accuracyAt(ds, la, sp.opts)
		if err != nil {
			if sp.label != "" {
				return fmt.Errorf("experiment: %s lookahead %d: %w", sp.label, la, err)
			}
			return fmt.Errorf("experiment: lookahead %d: %w", la, err)
		}
		curves[c.spec].Points[c.point] = AccuracyPoint{
			LookaheadS: la,
			AT:         conf.TruePositiveRate(),
			AF:         conf.FalseAlarmRate(),
			Confusion:  conf,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return curves, nil
}

func accuracyAt(ds Dataset, lookaheadS int64, opts AccuracyOptions) (predict.Confusion, error) {
	var conf predict.Confusion

	if opts.Monolithic {
		names, trainRows, trainLabels, testRows, testLabels, err := ds.monolithic()
		if err != nil {
			return conf, err
		}
		return predict.EvaluateTrace(opts.Predict, names,
			trainRows, trainLabels, testRows, testLabels,
			predict.EvalOptions{LookaheadS: lookaheadS, FilterK: opts.FilterK, FilterW: opts.FilterW})
	}

	// Per-component: one predictor per VM, alert = OR across VMs.
	type vmData struct {
		p        *predict.Predictor
		testRows [][]float64
	}
	var vms []vmData
	var testLabels []metrics.Label
	for _, id := range ds.Order {
		train, test, err := ds.split(id)
		if err != nil {
			return conf, err
		}
		trainRows, trainLabels := predict.RowsFromSamples(train)
		rows, labels := predict.RowsFromSamples(test)
		p, err := predict.New(opts.Predict, predict.AttributeNames())
		if err != nil {
			return conf, err
		}
		// Per-VM training uses the same localization-gated, pre-anomaly
		// extended labeling as the online controller.
		predict.RelabelForTraining(trainRows, trainLabels, p.StepsFor(lookaheadS))
		if err := p.Train(trainRows, trainLabels); err != nil {
			return conf, err
		}
		vms = append(vms, vmData{p: p, testRows: rows})
		if testLabels == nil {
			testLabels = labels
		} else if len(labels) != len(testLabels) {
			return conf, fmt.Errorf("experiment: VM %q test length mismatch", id)
		}
	}

	var filter *predict.AlarmFilter
	if opts.FilterK > 0 && opts.FilterW > 0 {
		f, err := predict.NewAlarmFilter(opts.FilterK, opts.FilterW)
		if err != nil {
			return conf, err
		}
		filter = f
	}

	steps := vms[0].p.StepsFor(lookaheadS)
	n := len(testLabels)
	for i := 0; i < n; i++ {
		alert := false
		for _, vm := range vms {
			if err := vm.p.Observe(vm.testRows[i]); err != nil {
				return conf, err
			}
			v, err := vm.p.Predict(steps)
			if err != nil {
				return conf, err
			}
			if v.Abnormal {
				alert = true
			}
		}
		if filter != nil {
			alert = filter.Offer(alert)
		}
		target := i + steps
		if target >= n {
			break
		}
		if testLabels[target] == metrics.LabelUnknown {
			continue
		}
		conf.Add(alert, testLabels[target] == metrics.LabelAbnormal)
	}
	return conf, nil
}

// monolithic merges every VM's attributes into single wide rows.
func (d Dataset) monolithic() (names []string, trainRows [][]float64, trainLabels []metrics.Label, testRows [][]float64, testLabels []metrics.Label, err error) {
	var comps []string
	var trainPer, testPer [][][]float64
	var trainLabelsPer, testLabelsPer [][]metrics.Label
	for _, id := range d.Order {
		train, test, splitErr := d.split(id)
		if splitErr != nil {
			return nil, nil, nil, nil, nil, splitErr
		}
		tr, tl := predict.RowsFromSamples(train)
		te, el := predict.RowsFromSamples(test)
		comps = append(comps, string(id))
		trainPer = append(trainPer, tr)
		trainLabelsPer = append(trainLabelsPer, tl)
		testPer = append(testPer, te)
		testLabelsPer = append(testLabelsPer, el)
	}
	names, trainRows, trainLabels, err = predict.MergeRows(comps, trainPer, trainLabelsPer)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	_, testRows, testLabels, err = predict.MergeRows(comps, testPer, testLabelsPer)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	return names, trainRows, trainLabels, testRows, testLabels, nil
}

// DefaultLookaheads is the paper's accuracy sweep range (5-45 s).
func DefaultLookaheads() []int64 {
	return []int64{5, 10, 15, 20, 25, 30, 35, 40, 45}
}
