package bayes

import "prepare/internal/telemetry"

// Package-level timing hooks, installed by the experiment wiring when
// telemetry is enabled. Uninstalled (the default) they cost one atomic
// load and branch per call, keeping the scratch-path scoring
// allocation-free (see the bayes benchmarks).
var (
	// scoreHook times the Equation (1) scoring passes (WindowScore,
	// MarginalScoreFast and ScoreMarginals), the TAN classifier's hot
	// path.
	scoreHook telemetry.Hook
	// trainHook times RefitFromCounts (tree construction + CPT
	// estimation), which every fit and refit runs.
	trainHook telemetry.Hook
)

// SetScoreHistogram installs (or, with nil, removes) the histogram
// receiving classifier scoring wall-clock timings.
func SetScoreHistogram(h *telemetry.Histogram) { scoreHook.Set(h) }

// SetTrainHistogram installs (or, with nil, removes) the histogram
// receiving model fit wall-clock timings.
func SetTrainHistogram(h *telemetry.Histogram) { trainHook.Set(h) }
