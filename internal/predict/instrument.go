package predict

import (
	"time"

	"prepare/internal/telemetry"
)

// Instruments bundles the telemetry a predictor records into. The zero
// value (all nil) is the disabled mode: recording costs a nil check and
// allocates nothing, preserving the scratch-buffer hot path (pinned by
// BenchmarkPredictWindow).
type Instruments struct {
	// Windows counts PredictWindow invocations.
	Windows *telemetry.Counter
	// WindowLatency records per-window wall-clock prediction latency
	// (value prediction over every attribute chain plus classification
	// of every step).
	WindowLatency *telemetry.Histogram
	// TrainLatency records per-predictor training time.
	TrainLatency *telemetry.Histogram
	// IncrementalUpdates counts samples folded into the sufficient
	// statistics by Predictor.Update.
	IncrementalUpdates *telemetry.Counter
}

// windowStart begins timing one PredictWindow pass; returns the zero
// time when latency tracking is off.
func (ins Instruments) windowStart() time.Time {
	ins.Windows.Inc()
	if ins.WindowLatency == nil {
		return time.Time{}
	}
	return time.Now()
}

// windowDone completes the timing started by windowStart.
func (ins Instruments) windowDone(start time.Time) {
	if start.IsZero() {
		return
	}
	ins.WindowLatency.ObserveSince(start)
}

// SetInstruments wires the predictor's telemetry (Instruments{} to
// disable).
func (p *Predictor) SetInstruments(ins Instruments) { p.ins = ins }
