// Package server wraps the sharded multi-tenant control.Engine behind
// an asynchronous ingest→predict→actuate controller service. Metric
// samples are POSTed in batches, land on bounded per-shard queues
// (backpressure: a full queue rejects the batch with 429 + Retry-After
// — the server never buffers unboundedly), and per-shard workers append
// them to push-style replay substrates, advancing each shard's control
// loops watermark-gated: a tenant ticks through simulated second T only
// once every one of the shard's VMs has reported a sample at or beyond
// T, so the asynchronous pipeline reproduces the synchronous engine's
// alert stream byte-for-byte. Confirmed alerts and executed preventions
// flow through a publish stage into bounded sequence-numbered logs
// consumed with since-cursors, and periodic model-snapshot checkpoints
// (reusing control's SaveModels/RestoreModels) give a cold replica warm
// failover: restored, it resumes with identical subsequent alerts.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prepare/internal/chaos"
	"prepare/internal/control"
	"prepare/internal/replay"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// Sentinel errors surfaced by Ingest and mapped onto HTTP statuses by
// the API layer.
var (
	// ErrNotRunning: the server has not started or has been closed.
	ErrNotRunning = errors.New("server: not running")
	// ErrBackpressure: at least one shard queue was full; retry after
	// the advertised delay. Accepted batches from the same request are
	// still processed.
	ErrBackpressure = errors.New("server: shard queue full")
	// ErrUnknownTenant: the batch names a tenant the server does not
	// manage.
	ErrUnknownTenant = errors.New("server: unknown tenant")
	// ErrBadBatch: the batch is structurally invalid (unknown VM, wrong
	// vector width, negative time, no samples).
	ErrBadBatch = errors.New("server: invalid batch")
	// ErrBatchTooLarge: the request exceeds MaxBatchSamples.
	ErrBatchTooLarge = errors.New("server: batch too large")
)

// Config tunes the controller service.
type Config struct {
	// Shards is the number of independent ingest queues and tick
	// workers; tenants map to shards by the engine's stable FNV-1a
	// hash. <= 0 defaults like control.EngineOptions.
	Shards int
	// QueueDepth bounds each shard's pending batch queue (default 256).
	// A full queue is the backpressure threshold: further batches are
	// rejected, never buffered.
	QueueDepth int
	// MaxBatchSamples bounds the total samples accepted in one ingest
	// request (default 4096).
	MaxBatchSamples int
	// MaxBodyBytes bounds one ingest request body (JSON or a single
	// binary frame) and each frame on the streaming endpoint (default
	// 8 MiB). Overflow maps to 413.
	MaxBodyBytes int64
	// AlertLogSize / AuditLogSize bound the published alert and
	// actuation rings (default 65536 each).
	AlertLogSize int
	AuditLogSize int
	// RetryAfterS is the Retry-After hint returned with 429 responses
	// (default 1 second).
	RetryAfterS int
	// CheckpointInterval enables periodic background model-snapshot
	// checkpoints at this wall-clock cadence; zero disables them. The
	// latest checkpoint is always retrievable via LastCheckpoint and
	// GET /v1/checkpoint regardless.
	CheckpointInterval time.Duration
	// Telemetry receives pipeline metrics (queue depth gauges, stage
	// latency histograms, end-to-end ingest/alert/actuation latencies).
	// Nil disables instrumentation.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatchSamples <= 0 {
		c.MaxBatchSamples = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.AlertLogSize <= 0 {
		c.AlertLogSize = 65536
	}
	if c.AuditLogSize <= 0 {
		c.AuditLogSize = 65536
	}
	if c.RetryAfterS <= 0 {
		c.RetryAfterS = 1
	}
	return c
}

// TenantConfig declares one managed tenant: its VM set and control
// configuration. The server builds the push-style substrate and control
// loop itself.
type TenantConfig struct {
	// ID names the tenant (unique, non-empty).
	ID string
	// VMs is the tenant's VM set.
	VMs []substrate.VMID
	// Scheme selects the management scheme (default SchemePREPARE).
	Scheme control.Scheme
	// Control tunes the tenant's control loop. MonitorNoiseStd is
	// forced to -1: ingested samples already carry measurement noise,
	// like any replayed trace.
	Control control.Config
	// Chaos optionally injects deterministic faults between the ingest
	// substrate and the control loop (disabled when the zero Plan).
	Chaos chaos.Plan
	// Replay tunes the underlying appendable substrate (allocations,
	// migration model).
	Replay replay.Config
}

// tenant is the server-side state of one managed tenant. After Start,
// the watermark/resume/published-count fields are owned by the tenant's
// shard worker goroutine; everything else is immutable.
type tenant struct {
	id       string
	shardIdx int
	sub      *replay.Substrate
	chaosSub *chaos.Substrate
	app      *replay.App
	ctl      *control.Controller
	// intern resolves a VM ID — wire-format bytes or a JSON string — to
	// the canonical VMID, and answers whether the tenant has that VM at
	// all. map[string] lookups with a []byte-conversion key stay on the
	// stack.
	intern  map[string]substrate.VMID
	vmOrder []substrate.VMID

	watermark  simclock.Time // min over VMs of last ingested sample time
	resumeFrom simclock.Time // ticks <= resumeFrom replay nothing (restored checkpoint)
	nAlerts    int           // alerts already handed to the publish stage
	nSteps     int
}

// shard is one ingest queue plus the tick state of its tenant group.
type shard struct {
	idx      int
	tenants  []*tenant // sorted by ID (engine order)
	queue    chan item
	lastTick simclock.Time
}

const (
	stateNew = iota
	stateRunning
	stateClosed
)

// Server is the controller service. Construct with New, optionally
// Restore a checkpoint, then Start; Handler exposes the HTTP API.
type Server struct {
	cfg     Config
	engine  *control.Engine
	tenants map[string]*tenant
	shards  []*shard
	tel     instruments
	mux     *http.ServeMux

	alerts *eventLog[Alert]
	audit  *eventLog[AuditEntry]
	pubCh  chan pubEvent

	// mu guards the lifecycle state against in-flight Ingest sends: a
	// queue is only closed under the write lock, senders hold the read
	// lock.
	mu    sync.RWMutex
	state int

	failure atomic.Value // error: first pipeline failure, latches readyz to 503

	wg       sync.WaitGroup // shard workers
	pubWG    sync.WaitGroup
	ckptMu   sync.Mutex // serializes checkpoint barriers
	stopCkpt chan struct{}

	lastCkpt atomic.Value // []byte: most recent checkpoint snapshot

	samplesAccepted atomic.Int64
	binaryFrames    atomic.Int64
	samplesApplied  atomic.Int64
	samplesRejected atomic.Int64
	batchesRejected atomic.Int64
	appendErrors    atomic.Int64
	ticks           atomic.Int64
	alertsPublished atomic.Int64
	stepsPublished  atomic.Int64
	checkpoints     atomic.Int64
}

// New builds a controller service over the tenant set. The underlying
// control.Engine supplies canonical ordering, shard placement, and
// model snapshot plumbing; the server drives the shards itself so each
// can tick at its own watermark.
func New(tenants []TenantConfig, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(tenants) == 0 {
		return nil, errors.New("server: at least one tenant is required")
	}
	states := make(map[string]*tenant, len(tenants))
	engTenants := make([]control.Tenant, 0, len(tenants))
	for _, tc := range tenants {
		if tc.ID == "" {
			return nil, errors.New("server: tenant ID is required")
		}
		if states[tc.ID] != nil {
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.ID)
		}
		st, err := newTenant(tc, cfg.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: %w", tc.ID, err)
		}
		states[tc.ID] = st
		engTenants = append(engTenants, control.Tenant{ID: tc.ID, Controller: st.ctl})
	}
	engine, err := control.NewEngine(engTenants, control.EngineOptions{Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}

	shards := make([]*shard, engine.NumShards())
	for i := range shards {
		sh := &shard{idx: i, queue: make(chan item, cfg.QueueDepth)}
		for _, id := range engine.ShardTenants(i) {
			st := states[id]
			st.shardIdx = i
			sh.tenants = append(sh.tenants, st)
		}
		shards[i] = sh
	}

	s := &Server{
		cfg:      cfg,
		engine:   engine,
		tenants:  states,
		shards:   shards,
		tel:      newInstruments(cfg.Telemetry, len(shards)),
		alerts:   newEventLog[Alert](cfg.AlertLogSize),
		audit:    newEventLog[AuditEntry](cfg.AuditLogSize),
		pubCh:    make(chan pubEvent, 1024),
		stopCkpt: make(chan struct{}),
	}
	s.mux = s.newMux()
	return s, nil
}

// newTenant wires one tenant: appendable replay substrate, optional
// chaos decoration for the control loop's view, ground-truth SLO app
// over the unwrapped substrate, and the controller itself — the same
// layering the experiment harness uses.
func newTenant(tc TenantConfig, reg *telemetry.Registry) (*tenant, error) {
	if len(tc.VMs) == 0 {
		return nil, errors.New("at least one VM is required")
	}
	sub, err := replay.NewAppendable(tc.VMs, tc.Replay)
	if err != nil {
		return nil, err
	}
	app, err := replay.NewApp(sub)
	if err != nil {
		return nil, err
	}
	scheme := tc.Scheme
	if scheme == 0 {
		scheme = control.SchemePREPARE
	}
	ctlCfg := tc.Control
	// Replayed samples already carry noise; a sampler RNG would also
	// put hidden state outside the checkpoint, breaking warm failover.
	ctlCfg.MonitorNoiseStd = -1
	ctlCfg.Telemetry = reg

	var loopSub substrate.Substrate = sub
	var chaosSub *chaos.Substrate
	if tc.Chaos.Enabled() {
		chaosSub, err = chaos.New(sub, tc.Chaos)
		if err != nil {
			return nil, err
		}
		chaosSub.SetTelemetry(reg)
		loopSub = chaosSub
	}
	ctl, err := control.New(scheme, loopSub, app, ctlCfg)
	if err != nil {
		return nil, err
	}
	st := &tenant{
		id:        tc.ID,
		sub:       sub,
		chaosSub:  chaosSub,
		app:       app,
		ctl:       ctl,
		intern:    make(map[string]substrate.VMID, len(tc.VMs)),
		watermark: -1,
	}
	st.vmOrder = sub.VMs()
	for _, id := range st.vmOrder {
		st.intern[string(id)] = id
	}
	return st, nil
}

// Start launches the shard workers, the publisher, and (when
// configured) the periodic checkpointer.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateNew {
		return ErrNotRunning
	}
	s.state = stateRunning
	s.pubWG.Add(1)
	go s.runPublisher()
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.runShard(sh)
	}
	if s.cfg.CheckpointInterval > 0 {
		go s.runCheckpointer()
	}
	return nil
}

// Close drains the pipeline and stops every worker. Batches accepted
// before Close are fully applied and their alerts published before
// Close returns, so a zero-loss shutdown is observable in Stats.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.state != stateRunning {
		s.mu.Unlock()
		return ErrNotRunning
	}
	s.state = stateClosed
	close(s.stopCkpt)
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.pubCh)
	s.pubWG.Wait()
	return nil
}

// fail latches the first pipeline error; readyz reports it.
func (s *Server) fail(err error) {
	s.failure.CompareAndSwap(nil, err)
}

// Failure returns the first pipeline error, or nil.
func (s *Server) Failure() error {
	if err, ok := s.failure.Load().(error); ok {
		return err
	}
	return nil
}

// running reports whether the pipeline accepts ingest.
func (s *Server) running() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state == stateRunning
}

// Tenants lists the managed tenant IDs in canonical order.
func (s *Server) Tenants() []string { return s.engine.Tenants() }

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Stats is a point-in-time snapshot of the pipeline counters.
type Stats struct {
	Tenants         int   `json:"tenants"`
	Shards          int   `json:"shards"`
	SamplesAccepted int64 `json:"samples_accepted"`
	BinaryFrames    int64 `json:"binary_frames"`
	SamplesApplied  int64 `json:"samples_applied"`
	SamplesRejected int64 `json:"samples_rejected"`
	BatchesRejected int64 `json:"batches_rejected"`
	AppendErrors    int64 `json:"append_errors"`
	Ticks           int64 `json:"ticks"`
	AlertsPublished int64 `json:"alerts_published"`
	StepsPublished  int64 `json:"steps_published"`
	Checkpoints     int64 `json:"checkpoints"`
	QueueDepths     []int `json:"queue_depths"`
	// Detectors maps each tenant to its resolved detector spec (e.g.
	// "tan" or "ensemble:tan+ewma@1").
	Detectors map[string]string `json:"detectors"`
	Failure   string            `json:"failure,omitempty"`
}

// Stats snapshots the pipeline counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Tenants:         len(s.tenants),
		Shards:          len(s.shards),
		SamplesAccepted: s.samplesAccepted.Load(),
		BinaryFrames:    s.binaryFrames.Load(),
		SamplesApplied:  s.samplesApplied.Load(),
		SamplesRejected: s.samplesRejected.Load(),
		BatchesRejected: s.batchesRejected.Load(),
		AppendErrors:    s.appendErrors.Load(),
		Ticks:           s.ticks.Load(),
		AlertsPublished: s.alertsPublished.Load(),
		StepsPublished:  s.stepsPublished.Load(),
		Checkpoints:     s.checkpoints.Load(),
		QueueDepths:     make([]int, len(s.shards)),
		Detectors:       make(map[string]string, len(s.tenants)),
	}
	for i, sh := range s.shards {
		st.QueueDepths[i] = len(sh.queue)
	}
	for id, t := range s.tenants {
		st.Detectors[id] = t.ctl.DetectorSpec().String()
	}
	if err := s.Failure(); err != nil {
		st.Failure = err.Error()
	}
	return st
}
