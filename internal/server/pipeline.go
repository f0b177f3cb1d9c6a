package server

import (
	"fmt"
	"time"

	"prepare/internal/control"
	"prepare/internal/metrics"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
	"prepare/internal/telemetry"
)

// Batch is one tenant's slice of an ingest request.
type Batch struct {
	Tenant  string     `json:"tenant"`
	Samples []SampleIn `json:"samples"`
}

// SampleIn is one ingested VM sample. Values carries the full
// 13-attribute vector in metrics.Attribute order; Label is the
// application's ground-truth SLO state at the sample instant
// ("normal", "abnormal", or "unknown").
type SampleIn struct {
	VM     string    `json:"vm"`
	TimeS  int64     `json:"time_s"`
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// IngestResult summarizes one ingest request: how many samples were
// accepted onto shard queues and how many were rejected by
// backpressure. Validation failures reject the whole request instead.
type IngestResult struct {
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// itemKind discriminates shard queue entries.
type itemKind int

const (
	// itemSamples carries one tenant's columnar batch — a decoded
	// binary frame or a filled JSON batch: the worker appends straight
	// from the decode state's column slices, then returns it to the
	// pool.
	itemSamples itemKind = iota
	// itemBarrier pauses the worker: it acks, then blocks until the
	// coordinator releases the gate (checkpoint quiescing).
	itemBarrier
	// itemModel asks the worker to snapshot one tenant's models
	// between ticks, where the models are quiescent.
	itemModel
)

type item struct {
	kind       itemKind
	tenant     *tenant
	ds         *decodeState // itemSamples
	enqueuedAt time.Time

	ack   chan<- struct{}   // itemBarrier
	gate  <-chan struct{}   // itemBarrier
	reply chan<- modelReply // itemModel
}

// pubEvent carries one tick's freshly confirmed alerts and executed
// steps from a shard worker to the publisher.
type pubEvent struct {
	tenant     *tenant
	tick       simclock.Time
	alerts     []control.AlertEvent
	steps      []prevent.Step
	enqueuedAt time.Time // enqueue instant of the batch whose apply ran this tick
}

func parseLabel(s string) (metrics.Label, error) {
	switch s {
	case "normal", "":
		return metrics.LabelNormal, nil
	case "abnormal":
		return metrics.LabelAbnormal, nil
	case "unknown":
		return metrics.LabelUnknown, nil
	}
	return metrics.LabelUnknown, fmt.Errorf("%w: bad label %q", ErrBadBatch, s)
}

// Ingest validates and enqueues a batched sample request — the same
// entry point the HTTP handler uses, callable in-process by the load
// generator at full memory speed. Each tenant batch is filled into a
// pooled decodeState through the wire.Batch builder, so it reaches its
// shard as the same columnar item a binary frame decodes into.
// Validation failures reject the whole request before anything is
// enqueued; once validation passes, each tenant batch is individually
// enqueued to its shard, and any batch that meets a full queue is
// rejected with ErrBackpressure while the rest proceed (the result
// reports both counts).
func (s *Server) Ingest(batches []Batch) (IngestResult, error) {
	if len(batches) == 0 {
		return IngestResult{}, fmt.Errorf("%w: no batches", ErrBadBatch)
	}
	items := make([]item, 0, len(batches))
	reject := func(err error) (IngestResult, error) {
		for _, it := range items {
			putDecodeState(it.ds)
		}
		return IngestResult{}, err
	}
	total := 0
	now := time.Now()
	for _, b := range batches {
		t := s.tenants[b.Tenant]
		if t == nil {
			return reject(fmt.Errorf("%w: %q", ErrUnknownTenant, b.Tenant))
		}
		if len(b.Samples) == 0 {
			return reject(fmt.Errorf("%w: tenant %q: no samples", ErrBadBatch, b.Tenant))
		}
		total += len(b.Samples)
		if total > s.cfg.MaxBatchSamples {
			return reject(fmt.Errorf("%w: %d samples exceed the %d-sample limit", ErrBatchTooLarge, total, s.cfg.MaxBatchSamples))
		}
		ds := decodePool.Get().(*decodeState)
		items = append(items, item{tenant: t, ds: ds, enqueuedAt: now})
		cb := ds.arena.Batch()
		cb.Reset(nil)
		// The VM dictionary gets one entry per row: JSON samples name
		// their VM each, and the apply stage only indexes it.
		ds.vms = ds.vms[:0]
		for _, in := range b.Samples {
			vm, ok := t.intern[in.VM]
			if !ok {
				return reject(fmt.Errorf("%w: tenant %q has no VM %q", ErrBadBatch, b.Tenant, in.VM))
			}
			if in.TimeS < 0 {
				return reject(fmt.Errorf("%w: negative sample time %d", ErrBadBatch, in.TimeS))
			}
			if len(in.Values) != metrics.NumAttributes {
				return reject(fmt.Errorf("%w: vector has %d values, want %d", ErrBadBatch, len(in.Values), metrics.NumAttributes))
			}
			label, err := parseLabel(in.Label)
			if err != nil {
				return reject(err)
			}
			ds.vms = append(ds.vms, vm)
			cb.Add(len(ds.vms)-1, in.TimeS, label, in.Values)
		}
		cb.TickFirst = b.Samples[0].TimeS
	}
	return s.enqueue(items)
}

// enqueue hands validated items to their shard queues — the one path
// every transport reaches the queue through. Ownership of each item's
// decodeState passes to the shard worker on a successful send; a
// rejected item's state goes straight back to the pool.
func (s *Server) enqueue(items []item) (IngestResult, error) {
	var res IngestResult
	// Hold the read lock across the sends so Close cannot close a
	// queue underneath them.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.state != stateRunning {
		for _, it := range items {
			putDecodeState(it.ds)
		}
		return res, ErrNotRunning
	}
	for _, it := range items {
		// Read the batch before the send: once queued, the worker owns
		// the state and may already have returned it to the pool.
		b := it.ds.arena.Batch()
		n := b.Rows()
		sh := s.shards[it.tenant.shardIdx]
		select {
		case sh.queue <- it:
			res.Accepted += n
			s.tel.depth(sh.idx, len(sh.queue))
		default:
			// Backpressure threshold: the queue is full, the batch is
			// rejected — never buffered — and the client is told when
			// to retry.
			res.Rejected += n
			s.batchesRejected.Add(1)
			s.tel.backpressure.Inc()
			if s.tel.reg != nil {
				s.tel.reg.Emit(b.TickFirst, "", telemetry.StageServer, telemetry.KindBackpressure,
					it.tenant.id, telemetry.F("samples", float64(n)))
			}
			putDecodeState(it.ds)
		}
	}
	s.samplesAccepted.Add(int64(res.Accepted))
	s.samplesRejected.Add(int64(res.Rejected))
	s.tel.batches.Inc()
	s.tel.samplesAccepted.Add(int64(res.Accepted))
	s.tel.samplesRejected.Add(int64(res.Rejected))
	if res.Rejected > 0 {
		res.RetryAfterS = s.cfg.RetryAfterS
		return res, ErrBackpressure
	}
	return res, nil
}

// runShard is one shard's worker: it drains the ingest queue, appends
// samples to the tenants' substrates, and advances the shard's control
// loops up to the watermark. The queue channel is closed by Close; the
// worker drains fully before exiting so accepted batches are never
// dropped.
func (s *Server) runShard(sh *shard) {
	defer s.wg.Done()
	for it := range sh.queue {
		s.tel.depth(sh.idx, len(sh.queue))
		switch it.kind {
		case itemSamples:
			s.tel.queueWait.ObserveSince(it.enqueuedAt)
			s.apply(sh, it)
		case itemBarrier:
			it.ack <- struct{}{}
			<-it.gate
		case itemModel:
			it.reply <- snapshotModels(it.tenant)
		}
	}
}

// apply is the apply stage: append the item's rows straight out of its
// batch's column slices — one stack-allocated metrics.Sample per row,
// no intermediate sample slice — move the tenant's watermark, and tick
// the shard as far as the new watermark allows. Prediction, diagnosis,
// and actuation all run inside the controllers' OnTick. The decode
// state returns to the pool afterwards.
func (s *Server) apply(sh *shard, it item) {
	ds := it.ds
	defer putDecodeState(ds)
	if s.Failure() != nil {
		return // pipeline is latched failed; drain without side effects
	}
	start := time.Now()
	t := it.tenant
	b := ds.arena.Batch()
	applied := 0
	var sm metrics.Sample
	for i, n := 0, b.Rows(); i < n; i++ {
		sm.Time = simclock.Time(b.Times[i])
		sm.Label = b.Labels[i]
		for a := range b.Cols {
			sm.Values[a] = b.Cols[a][i]
		}
		if err := t.sub.Append(ds.vms[b.VMIdx[i]], sm); err != nil {
			// A client violated the per-VM monotonic-time contract (or
			// raced the cursor). The sample is dropped and counted; the
			// pipeline keeps going.
			s.appendErrors.Add(1)
			s.tel.appendErrors.Inc()
			continue
		}
		applied++
	}
	t.watermark = t.minLastTime()
	s.tel.applyLatency.ObserveSince(start)
	s.advanceShard(sh, it.enqueuedAt)
	// Count the rows only once the ticks they unlocked have run, so a
	// reader that sees SamplesApplied reach n also sees those ticks.
	s.samplesApplied.Add(int64(applied))
	s.tel.samplesApplied.Add(int64(applied))
	s.tel.ingestE2E.ObserveSince(it.enqueuedAt)
}

// minLastTime recomputes the tenant's watermark: the last instant for
// which every VM has reported. -1 until every VM has at least one
// sample.
func (t *tenant) minLastTime() simclock.Time {
	min := simclock.Time(-1)
	for i, id := range t.vmOrder {
		lt, _ := t.sub.LastTime(id)
		if i == 0 || lt.Before(min) {
			min = lt
		}
	}
	return min
}

// advanceShard runs the predict→diagnose→actuate stages: every control
// loop in the shard ticks through each simulated second the shard's
// watermark has fully covered, in the engine's canonical tenant order,
// and freshly confirmed alerts and executed steps are handed to the
// publish stage.
func (s *Server) advanceShard(sh *shard, enqueuedAt time.Time) {
	wm := sh.minWatermark()
	for now := sh.lastTick + 1; !wm.Before(now); now++ {
		tickStart := time.Now()
		for _, t := range sh.tenants {
			if !now.After(t.resumeFrom) {
				continue // replayed history before the restored checkpoint
			}
			// Advance the substrate before the controller observes it —
			// the engine's Tenant.Advance contract. The app then reports
			// the SLO label at now, exactly as a live closed-loop world
			// does, which makes replaying a live run's dataset reproduce
			// its alert stream bit-for-bit.
			t.sub.Advance(now)
			if err := t.ctl.OnTick(now); err != nil {
				s.fail(fmt.Errorf("server: tenant %s at t=%v: %w", t.id, now, err))
				return
			}
			na, ns := t.ctl.AlertCount(), t.ctl.StepCount()
			if na > t.nAlerts || ns > t.nSteps {
				ev := pubEvent{
					tenant:     t,
					tick:       now,
					alerts:     t.ctl.AlertsSince(t.nAlerts),
					steps:      t.ctl.StepsSince(t.nSteps),
					enqueuedAt: enqueuedAt,
				}
				t.nAlerts, t.nSteps = na, ns
				// A blocking send: if the publisher falls behind, the
				// apply stage slows, the shard queue fills, and ingest
				// starts rejecting — backpressure propagates upstream
				// instead of buffering unboundedly.
				s.pubCh <- ev
			}
		}
		sh.lastTick = now
		s.ticks.Add(1)
		s.tel.ticks.Inc()
		s.tel.tickLatency.ObserveSince(tickStart)
	}
}

// minWatermark is the shard's tick bound: the slowest tenant gates the
// whole shard, exactly as Engine.Step's shared clock does.
func (sh *shard) minWatermark() simclock.Time {
	min := simclock.Time(-1)
	for i, t := range sh.tenants {
		if i == 0 || t.watermark.Before(min) {
			min = t.watermark
		}
	}
	return min
}

// runPublisher is the publish stage: the single appender to the alert
// and audit logs, assigning sequence numbers and recording end-to-end
// latencies.
func (s *Server) runPublisher() {
	defer s.pubWG.Done()
	for ev := range s.pubCh {
		for _, a := range ev.alerts {
			alert := a
			tn := ev.tenant.id
			s.alerts.append(func(seq uint64) Alert {
				return Alert{Seq: seq, Tenant: tn, Time: alert.Time, VM: alert.VM, Score: alert.Score, Predicted: alert.Predicted}
			})
			s.alertsPublished.Add(1)
			s.tel.alertsPublished.Inc()
			s.tel.alertE2E.ObserveSince(ev.enqueuedAt)
		}
		for _, st := range ev.steps {
			step := st
			tn := ev.tenant.id
			s.audit.append(func(seq uint64) AuditEntry {
				return AuditEntry{Seq: seq, Tenant: tn, Time: step.Time, VM: step.VM, Kind: step.Kind, Resource: step.Resource, Detail: step.Detail}
			})
			s.stepsPublished.Add(1)
			s.tel.stepsPublished.Inc()
			s.tel.actuationE2E.ObserveSince(ev.enqueuedAt)
		}
	}
}
