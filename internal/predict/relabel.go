package predict

import "prepare/internal/metrics"

// Relabeling thresholds (shared by the batch RelabelForTraining pass and
// the streaming relabel path of incremental training).
const (
	// relabelZThreshold is the robust z-score beyond which one attribute
	// counts as deviating from the fault-free baseline.
	relabelZThreshold = 5.0
	// relabelMinDeviating is how many attributes must deviate for the row
	// itself to count as deviating.
	relabelMinDeviating = 2
	// minAbnormalSupport is the minimum number of surviving abnormal rows
	// for the abnormal class to be trained at all; fewer are treated as
	// gate leakage and folded back into the normal class.
	minAbnormalSupport = 6
	// minBaselineRows is the minimum number of normal-labeled rows needed
	// to fit a usable baseline; with fewer, relabeling is skipped.
	minBaselineRows = 10
)

// baseline is a per-column robust center/spread (median and scaled MAD)
// fitted over fault-free rows. The incremental trainer freezes one at
// initial training time and gates every subsequent label against it.
type baseline struct {
	mean []float64 // robust center (median)
	std  []float64 // robust spread (1.4826 * MAD)
}

// fitBaseline fits the robust baseline over the normal-labeled rows, or
// returns nil when there are fewer than minBaselineRows of them. A
// mean/std baseline would be contaminated by the pre-anomaly drift
// itself (which carries normal labels until the SLO breaks), hence
// median and MAD.
func fitBaseline(rows [][]float64, labels []metrics.Label) *baseline {
	if len(rows) == 0 || len(rows) != len(labels) {
		return nil
	}
	nCols := len(rows[0])
	normal := make([][]float64, 0, len(rows))
	for i, row := range rows {
		if labels[i] == metrics.LabelNormal && len(row) == nCols {
			normal = append(normal, row)
		}
	}
	if len(normal) < minBaselineRows {
		return nil // not enough baseline to judge
	}
	mean, std := metrics.RobustScale(normal)
	return &baseline{mean: mean, std: std}
}

// deviating reports whether the row deviates from the baseline on at
// least relabelMinDeviating attributes.
func (b *baseline) deviating(row []float64) bool {
	count := 0
	for j, v := range row {
		if z := (v - b.mean[j]) / b.std[j]; z > relabelZThreshold || z < -relabelZThreshold {
			count++
		}
	}
	return count >= relabelMinDeviating
}

// gateAndExtend applies the first two relabeling passes in place:
// deviation gating (abnormal rows that do not deviate become normal) and
// backward pre-anomaly extension at each violation onset (deviating rows
// within lookbackSamples before the onset become abnormal, through the
// contiguous drift only).
func gateAndExtend(labels []metrics.Label, deviating []bool, lookbackSamples int) {
	for i := range labels {
		if labels[i] == metrics.LabelAbnormal && !deviating[i] {
			labels[i] = metrics.LabelNormal
		}
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] != metrics.LabelAbnormal || labels[i-1] != metrics.LabelNormal {
			continue
		}
		lo := i - lookbackSamples
		if lo < 0 {
			lo = 0
		}
		for j := i - 1; j >= lo; j-- {
			if !deviating[j] {
				break // extend only through the contiguous drift
			}
			labels[j] = metrics.LabelAbnormal
		}
	}
}

// applyMinSupport folds every abnormal label back to normal when the
// abnormal class lacks minimum support: a handful of surviving abnormal
// rows is noise that slipped through the gate (e.g., a healthy VM whose
// workload happened to spike during the violation), not a learnable
// anomaly signature. Training on them would yield a model that
// false-alarms whenever the coincidental pattern recurs.
func applyMinSupport(labels []metrics.Label) {
	abnormal := 0
	for _, l := range labels {
		if l == metrics.LabelAbnormal {
			abnormal++
		}
	}
	if abnormal > 0 && abnormal < minAbnormalSupport {
		for i, l := range labels {
			if l == metrics.LabelAbnormal {
				labels[i] = metrics.LabelNormal
			}
		}
	}
}

// RelabelForTraining prepares one component's labels for classifier
// training:
//
//  1. Fault localization gating: abnormal labels are downgraded to normal
//     on rows where the component's own metrics do not deviate from its
//     fault-free baseline (at least two attributes beyond 3.5 sigma), so
//     healthy components do not learn application-level violation windows
//     as their own anomaly signatures — the role the paper delegates to
//     its fault localization techniques [13,14].
//  2. Pre-anomaly extension: rows within lookbackSamples BEFORE each
//     violation onset are labeled abnormal when they pass the same
//     deviation gate. This teaches the classifier the faulty component's
//     pre-violation drift signature (the alert-state labeling of the
//     authors' earlier anomaly prediction work), which is what gives the
//     online predictor usable lead time.
//
// The slices are modified in place.
func RelabelForTraining(rows [][]float64, labels []metrics.Label, lookbackSamples int) {
	if len(rows) == 0 || len(rows) != len(labels) {
		return
	}
	b := fitBaseline(rows, labels)
	if b == nil {
		return // not enough baseline to judge; keep labels as-is
	}
	deviating := make([]bool, len(rows))
	for i, row := range rows {
		deviating[i] = b.deviating(row)
	}
	gateAndExtend(labels, deviating, lookbackSamples)
	applyMinSupport(labels)
}
