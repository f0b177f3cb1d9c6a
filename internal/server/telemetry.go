package server

import (
	"fmt"

	"prepare/internal/telemetry"
)

// instruments bundles the server's pipeline telemetry. All fields are
// nil when telemetry is disabled; nil instruments no-op, following the
// control-loop convention, so the ingest hot path stays allocation-free
// without a registry.
type instruments struct {
	reg *telemetry.Registry

	batches         *telemetry.Counter
	samplesAccepted *telemetry.Counter
	samplesRejected *telemetry.Counter
	samplesApplied  *telemetry.Counter
	appendErrors    *telemetry.Counter
	ticks           *telemetry.Counter
	alertsPublished *telemetry.Counter
	stepsPublished  *telemetry.Counter
	checkpoints     *telemetry.Counter
	backpressure    *telemetry.Counter

	// checkpointPause is how long each checkpoint holds the barrier
	// (milliseconds, from the last shard worker parking to the gate's
	// release); checkpointBytes is the last checkpoint's size.
	checkpointPause *telemetry.Histogram
	checkpointBytes *telemetry.Gauge
	frames          *telemetry.Counter

	// queueDepth gauges track each shard's pending ingest batches.
	queueDepth []*telemetry.Gauge

	// Stage latencies (seconds): binary frame decode, time spent queued
	// before the shard worker picked a batch up, the append+watermark
	// apply pass, one whole-shard tick, and a publish pass.
	decodeLatency *telemetry.Histogram
	queueWait     *telemetry.Histogram
	applyLatency  *telemetry.Histogram
	tickLatency   *telemetry.Histogram

	// End-to-end latencies (seconds): ingest (batch enqueued → samples
	// applied), alert (triggering batch enqueued → alert published) and
	// actuation (triggering batch enqueued → audit entry published).
	ingestE2E    *telemetry.Histogram
	alertE2E     *telemetry.Histogram
	actuationE2E *telemetry.Histogram
}

func newInstruments(reg *telemetry.Registry, shards int) instruments {
	ins := instruments{
		reg:             reg,
		batches:         reg.Counter("server.ingest.batches"),
		samplesAccepted: reg.Counter("server.ingest.samples.accepted"),
		samplesRejected: reg.Counter("server.ingest.samples.rejected"),
		samplesApplied:  reg.Counter("server.ingest.samples.applied"),
		appendErrors:    reg.Counter("server.ingest.append_errors"),
		ticks:           reg.Counter("server.ticks"),
		alertsPublished: reg.Counter("server.alerts.published"),
		stepsPublished:  reg.Counter("server.steps.published"),
		checkpoints:     reg.Counter("server.checkpoints"),
		backpressure:    reg.Counter("server.ingest.backpressure"),
		frames:          reg.Counter("server.ingest.frames"),
		checkpointPause: reg.HistogramWith("server.checkpoint.pause_ms", pauseBucketsMs),
		checkpointBytes: reg.Gauge("server.checkpoint.bytes"),
		decodeLatency:   reg.HistogramWith("server.stage.decode", telemetry.LatencyBuckets),
		queueWait:       reg.HistogramWith("server.stage.queue_wait", telemetry.LatencyBuckets),
		applyLatency:    reg.HistogramWith("server.stage.apply", telemetry.LatencyBuckets),
		tickLatency:     reg.HistogramWith("server.stage.tick", telemetry.LatencyBuckets),
		ingestE2E:       reg.HistogramWith("server.ingest.e2e", telemetry.LatencyBuckets),
		alertE2E:        reg.HistogramWith("server.alert.e2e", telemetry.LatencyBuckets),
		actuationE2E:    reg.HistogramWith("server.actuation.e2e", telemetry.LatencyBuckets),
	}
	if reg != nil {
		ins.queueDepth = make([]*telemetry.Gauge, shards)
		for i := range ins.queueDepth {
			ins.queueDepth[i] = reg.Gauge(fmt.Sprintf("server.queue.depth.shard%d", i))
		}
	}
	return ins
}

// pauseBucketsMs is the checkpoint pause histogram's layout: upper
// bounds in milliseconds, 1-2-5 per decade from 0.1 ms to 10 s.
var pauseBucketsMs = []float64{
	0.1, 0.2, 0.5,
	1, 2, 5,
	10, 20, 50,
	100, 200, 500,
	1000, 2000, 5000, 10000,
}

// depth records the shard's current queue depth, nil-safe.
func (ins *instruments) depth(shard, depth int) {
	if ins.queueDepth == nil {
		return
	}
	ins.queueDepth[shard].Set(float64(depth))
}
