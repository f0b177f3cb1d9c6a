package server

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"time"

	"prepare/internal/binenc"
	"prepare/internal/control"
	"prepare/internal/simclock"
	"prepare/internal/telemetry"
)

// The warm-failover checkpoint (DESIGN.md §10): magic, version, a
// section of tenant ticks and a section of control.AppendEngineModels.
// Version 1 was JSON and is refused.
const (
	checkpointMagic   = "PCK"
	checkpointVersion = 2
)

type modelReply struct {
	data []byte
	err  error
}

// snapshotModels serializes one tenant's models; it runs on the shard
// worker between ticks, where the models are quiescent.
func snapshotModels(t *tenant) modelReply {
	var buf bytes.Buffer
	if err := control.WriteModelsJSON(&buf, t.ctl); err != nil {
		return modelReply{err: err}
	}
	return modelReply{data: buf.Bytes()}
}

// TenantModel returns the tenant's current model snapshot (control's
// WriteModelsJSON). The request is routed through the tenant's shard
// queue so it serializes with ticking; it shares the ingest queue and
// therefore the same backpressure.
func (s *Server) TenantModel(id string) ([]byte, error) {
	t := s.tenants[id]
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	s.mu.RLock()
	if s.state != stateRunning {
		s.mu.RUnlock()
		return nil, ErrNotRunning
	}
	reply := make(chan modelReply, 1)
	s.shards[t.shardIdx].queue <- item{kind: itemModel, tenant: t, reply: reply}
	s.mu.RUnlock()
	r := <-reply
	return r.data, r.err
}

// Checkpoint quiesces every shard behind a barrier, captures each
// tenant's tick position and the full engine model snapshot, releases
// the pipeline and writes the checkpoint to w. Every tenant must be
// trained. Serialized: concurrent checkpoints run one at a time.
func (s *Server) Checkpoint(w io.Writer) error {
	b, err := s.checkpoint()
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// checkpoint encodes a checkpoint into a fresh buffer in one pass at the barrier.
func (s *Server) checkpoint() ([]byte, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Hold the read lock across the barrier sends so Close cannot
	// close a queue mid-checkpoint.
	s.mu.RLock()
	if s.state != stateRunning {
		s.mu.RUnlock()
		return nil, ErrNotRunning
	}
	acks := make(chan struct{}, len(s.shards))
	gate := make(chan struct{})
	for _, sh := range s.shards {
		sh.queue <- item{kind: itemBarrier, ack: acks, gate: gate}
	}
	s.mu.RUnlock()
	for range s.shards {
		<-acks
	}
	// Every worker is paused at the gate: tick state and models are
	// quiescent and safe to read from here.
	parked := time.Now()
	e := binenc.NewEncoder(make([]byte, 0, s.ckptSize))
	e.Header(checkpointMagic, checkpointVersion)
	mark := e.Begin()
	e.Uvarint(uint64(len(s.tenants)))
	var maxTick int64 // stamps the telemetry event
	for _, sh := range s.shards {
		for _, t := range sh.tenants {
			e.String(t.id)
			e.Int(sh.lastTick.Seconds())
		}
		maxTick = max(maxTick, sh.lastTick.Seconds())
	}
	e.End(mark)
	mark = e.Begin()
	control.AppendEngineModels(&e, s.engine)
	e.End(mark)
	close(gate)
	s.tel.checkpointPause.Observe(float64(time.Since(parked).Nanoseconds()) / 1e6)
	b, err := e.Finish()
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint: %w", err)
	}
	s.ckptSize = len(b)
	s.checkpoints.Add(1)
	s.tel.checkpoints.Inc()
	s.tel.checkpointBytes.Set(float64(len(b)))
	if s.tel.reg != nil {
		s.tel.reg.Emit(maxTick, "", telemetry.StageServer, telemetry.KindCheckpoint, "checkpoint")
	}
	return b, nil
}

// Restore loads a checkpoint into a server that has not started yet:
// models are installed through control.RestoreEngineModels and each
// tenant resumes after its checkpointed tick — ticks at or before it
// are skipped, so feeding the replica the post-checkpoint samples
// reproduces the primary's subsequent alert stream exactly.
func (s *Server) Restore(r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateNew {
		return errors.New("server: restore requires a server that has not started")
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("server: read checkpoint: %w", err)
	}
	d := binenc.NewDecoder(raw)
	d.Header(checkpointMagic, checkpointVersion)
	td := binenc.NewDecoder(d.Section())
	n := td.Len(2) // an ID and a tick take two bytes at least
	ticks := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		ticks[td.String()] = td.Int()
	}
	models := binenc.NewDecoder(d.Section())
	if err := cmp.Or(d.Finish(), td.Finish()); err != nil {
		return fmt.Errorf("server: decode checkpoint: %w", err)
	}
	for id := range s.tenants {
		if _, ok := ticks[id]; !ok {
			return fmt.Errorf("server: checkpoint has no tick for tenant %q", id)
		}
	}
	if n != len(s.tenants) { // every tenant has a tick, so n counts others or repeats
		return fmt.Errorf("server: checkpoint has %d tenant ticks, this server runs %d tenants", n, len(s.tenants))
	}
	if err := control.RestoreEngineModels(s.engine, &models); err != nil {
		return err
	}
	for id, tick := range ticks {
		s.tenants[id].resumeFrom = simclock.Time(tick)
	}
	// Skip the replayed-history range instead of iterating over it.
	for _, sh := range s.shards {
		min := simclock.Time(0)
		for i, t := range sh.tenants {
			if i == 0 || t.resumeFrom.Before(min) {
				min = t.resumeFrom
			}
		}
		sh.lastTick = min
	}
	return nil
}

// LastCheckpoint returns the most recent checkpoint captured by the
// periodic checkpointer or GET /v1/checkpoint, or nil; no later one
// changes its bytes.
func (s *Server) LastCheckpoint() []byte {
	if b, ok := s.lastCkpt.Load().([]byte); ok {
		return b
	}
	return nil
}

// runCheckpointer captures a checkpoint every CheckpointInterval.
// Failures (typically: a tenant not trained yet) are skipped quietly;
// the next interval retries.
func (s *Server) runCheckpointer() {
	ticker := time.NewTicker(s.cfg.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCkpt:
			return
		case <-ticker.C:
			if b, err := s.checkpoint(); err == nil {
				s.lastCkpt.Store(b)
			}
		}
	}
}
