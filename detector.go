package prepare

import (
	"prepare/internal/detector"
	"prepare/internal/experiment"
	"prepare/internal/predict"
)

// Pluggable anomaly detection. The control loop drives every detector
// kind — the paper's supervised Markov+TAN pipeline, the Section V
// unsupervised extensions, forecast-error detectors, and weighted-vote
// ensembles — through one code path; Scenario.Detector selects which.
type (
	// DetectorSpec selects the anomaly detector driving a control loop:
	// a single kind, or an ensemble of kinds with a vote quorum.
	DetectorSpec = detector.Spec
	// Detector is the streaming anomaly-detector interface every kind
	// implements (train, per-sample update, window scoring with lead
	// time, per-attribute attribution, snapshot round-trip).
	Detector = detector.Detector
	// DetectorVerdict is a full detector outcome: the decision plus
	// per-attribute attribution strengths.
	DetectorVerdict = detector.Verdict
	// DetectorDecision is a cheap detector outcome: abnormal flag,
	// score, and predicted lead steps.
	DetectorDecision = detector.Decision
	// DetectorOptions is what a detector needs from its host: the
	// column names, the value-prediction configuration, the TAN alert
	// margin and training look-back, and the seed of the kmeans kind.
	DetectorOptions = predict.DetectorOptions
)

// Detector kinds accepted by DetectorSpec and ParseDetectorSpec.
const (
	// DetectorTAN is the paper's supervised Markov+TAN pipeline (the
	// default).
	DetectorTAN = detector.KindTAN
	// DetectorKMeans is the unsupervised k-means outlier detector over
	// predicted states (the Section V extension).
	DetectorKMeans = detector.KindKMeans
	// DetectorEWMA is the Holt forecast-error detector: double
	// exponential smoothing per attribute with robust MAD-scaled
	// Mahalanobis-style deviation scoring.
	DetectorEWMA = detector.KindEWMA
	// DetectorZRobust is the threshold-free robust z-score detector:
	// it self-calibrates an alert level from its own score stream.
	DetectorZRobust = detector.KindZRobust
	// DetectorEnsemble combines member detectors by weighted vote.
	DetectorEnsemble = detector.KindEnsemble
)

// ParseDetectorSpec parses the CLI detector syntax: a single kind
// ("tan", "ewma", ...), or an ensemble "ensemble:tan+ewma" with an
// optional vote quorum "ensemble:tan+ewma@1" (default: strict
// majority).
func ParseDetectorSpec(s string) (DetectorSpec, error) { return detector.ParseSpec(s) }

// NewDetector builds an untrained detector of any kind over the named
// metric columns, for driving it over your own metric streams: Train on
// a history (labels may be nil for the kinds that ignore them), then
// per sample Observe or Update followed by Score.
func NewDetector(spec DetectorSpec, opts DetectorOptions) (Detector, error) {
	return predict.NewDetector(spec, opts)
}

// NAB-style time-window-aware detector scoring: detections are judged
// against ground-truth anomaly windows derived from fault-injection
// intervals, with early-detection credit and a false-alarm cost.
type (
	// AnomalyWindow is one ground-truth anomaly interval [Start, End).
	AnomalyWindow = experiment.AnomalyWindow
	// NABOptions parameterizes window scoring (zero value = the NAB
	// standard profile).
	NABOptions = experiment.NABOptions
	// NABScore is the outcome of scoring one alert stream against one
	// set of anomaly windows.
	NABScore = experiment.NABScore
	// DetectorRun is one cell of a detector comparison.
	DetectorRun = experiment.DetectorRun
)

// ScoreAlerts scores a confirmed-alert stream against ground-truth
// anomaly windows: positional credit for the first in-window alert,
// a false-alarm penalty for every out-of-window alert, and a miss
// penalty per undetected window.
func ScoreAlerts(alerts []AlertEvent, windows []AnomalyWindow, opts NABOptions) NABScore {
	return experiment.ScoreAlerts(alerts, windows, opts)
}

// CompareDetectors runs the base scenario once per (fault, detector)
// combination under SchemePREPARE and scores each run's confirmed
// alerts against that fault's anomaly windows. Results are
// byte-identical for any SetParallelism value.
func CompareDetectors(base Scenario, faultKinds []FaultKind, specs []DetectorSpec, opts NABOptions) ([]DetectorRun, error) {
	return experiment.CompareDetectors(base, faultKinds, specs, opts)
}

// FormatDetectorTable renders a detector comparison as a fixed-width
// text table, rows in input order.
func FormatDetectorTable(runs []DetectorRun) string { return experiment.FormatDetectorTable(runs) }
