package control

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"prepare/internal/binenc"
	"prepare/internal/detector"
	"prepare/internal/pool"
	"prepare/internal/prevent"
	"prepare/internal/simclock"
)

// Tenant is one independently managed application: its controller plus
// the hook that drives its world forward each simulated second. Tenants
// never share state — each has its own substrate, application, and
// seeded RNGs — which is what lets the engine step them concurrently
// without changing any per-tenant result.
type Tenant struct {
	// ID names the tenant; it keys shard placement and labels aggregate
	// output. IDs must be unique and non-empty.
	ID string
	// Controller is the tenant's control loop.
	Controller *Controller
	// Advance drives the tenant's world (fault schedule, application,
	// simulator) up to now, before the controller observes it. Nil when
	// the substrate advances itself from the controller's tick (replay).
	Advance func(now simclock.Time) error
	// Until is the tenant's last simulated second; after it the engine
	// stops ticking the tenant. Zero means the whole engine horizon.
	Until simclock.Time
}

// EngineOptions tunes a multi-tenant engine.
type EngineOptions struct {
	// Shards is the number of independent tenant groups stepped
	// concurrently; <= 0 means pool.DefaultWorkers(). Tenants map to
	// shards by a hash of their ID, so placement is stable across runs.
	Shards int
	// Workers bounds the worker pool stepping the shards; <= 0 means
	// pool.DefaultWorkers().
	Workers int
}

// Engine steps N independent per-tenant controllers, sharded by a hash
// of the tenant ID and stepped concurrently over the bounded worker
// pool. Within a shard, tenants tick sequentially in sorted ID order;
// across shards there is no ordering — tenants are fully isolated, so
// every per-tenant trace is byte-identical for any shard or worker
// count, and the aggregate views are emitted in canonical sorted order.
type Engine struct {
	tenants []*Tenant   // sorted by ID
	shards  [][]*Tenant // hash(ID) % len(shards); sorted within a shard
	runner  pool.Runner
	ticks   int64
}

// shardOf is the stable tenant-to-shard map: FNV-1a over the ID.
func shardOf(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

// NewEngine builds an engine over the tenants. Tenant IDs must be
// unique and non-empty and every tenant needs a controller.
func NewEngine(tenants []Tenant, opts EngineOptions) (*Engine, error) {
	if len(tenants) == 0 {
		return nil, errors.New("control: engine needs at least one tenant")
	}
	owned := make([]*Tenant, 0, len(tenants))
	seen := make(map[string]bool, len(tenants))
	for i := range tenants {
		t := tenants[i]
		if t.ID == "" {
			return nil, fmt.Errorf("control: tenant %d has an empty ID", i)
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("control: duplicate tenant ID %q", t.ID)
		}
		if t.Controller == nil {
			return nil, fmt.Errorf("control: tenant %q has no controller", t.ID)
		}
		seen[t.ID] = true
		owned = append(owned, &t)
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i].ID < owned[j].ID })

	shards := opts.Shards
	if shards <= 0 {
		shards = pool.DefaultWorkers()
	}
	if shards > len(owned) {
		shards = len(owned)
	}
	buckets := make([][]*Tenant, shards)
	// Iterating in sorted order keeps each bucket sorted too.
	for _, t := range owned {
		s := shardOf(t.ID, shards)
		buckets[s] = append(buckets[s], t)
	}
	return &Engine{
		tenants: owned,
		shards:  buckets,
		runner:  pool.Runner{Workers: opts.Workers},
	}, nil
}

// Tenants lists the tenant IDs in canonical sorted order.
func (e *Engine) Tenants() []string {
	out := make([]string, len(e.tenants))
	for i, t := range e.tenants {
		out[i] = t.ID
	}
	return out
}

// NumShards returns the engine's shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardTenants lists the tenant IDs of one shard in sorted order; a
// wrapper that drives shards itself (internal/server) uses it to mirror
// the engine's stable hash placement.
func (e *Engine) ShardTenants(i int) []string {
	out := make([]string, len(e.shards[i]))
	for j, t := range e.shards[i] {
		out[j] = t.ID
	}
	return out
}

// Controller returns the named tenant's controller, or nil.
func (e *Engine) Controller(id string) *Controller {
	for _, t := range e.tenants {
		if t.ID == id {
			return t.Controller
		}
	}
	return nil
}

// Step advances every active tenant by one simulated second. Shards run
// concurrently on the pool; the first tenant error (deterministic by
// shard index) cancels the remaining shards and is returned.
func (e *Engine) Step(now simclock.Time) error {
	e.ticks++
	return e.runner.ForEach(context.Background(), len(e.shards), func(_ context.Context, i int) error {
		for _, t := range e.shards[i] {
			if t.Until != 0 && now.After(t.Until) {
				continue
			}
			if t.Advance != nil {
				if err := t.Advance(now); err != nil {
					return fmt.Errorf("control: tenant %s: %w", t.ID, err)
				}
			}
			if err := t.Controller.OnTick(now); err != nil {
				return fmt.Errorf("control: tenant %s: %w", t.ID, err)
			}
		}
		return nil
	})
}

// Run steps the engine from second 1 through until, inclusive.
func (e *Engine) Run(until simclock.Time) error {
	for s := int64(1); s <= until.Seconds(); s++ {
		if err := e.Step(simclock.Time(s)); err != nil {
			return err
		}
	}
	return nil
}

// TenantAlert is one confirmed alert tagged with its tenant.
type TenantAlert struct {
	Tenant string
	AlertEvent
}

// Alerts merges every tenant's confirmed alerts, sorted by (Time,
// Tenant); within one tenant the controller's chronological order is
// kept. The result is identical for any shard or worker count.
func (e *Engine) Alerts() []TenantAlert {
	var out []TenantAlert
	for _, t := range e.tenants {
		for _, a := range t.Controller.Alerts() {
			out = append(out, TenantAlert{Tenant: t.ID, AlertEvent: a})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// TenantStep is one executed prevention step tagged with its tenant.
type TenantStep struct {
	Tenant string
	prevent.Step
}

// Steps merges every tenant's prevention steps, sorted by (Time,
// Tenant), chronological within a tenant.
func (e *Engine) Steps() []TenantStep {
	var out []TenantStep
	for _, t := range e.tenants {
		for _, s := range t.Controller.Steps() {
			out = append(out, TenantStep{Tenant: t.ID, Step: s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// EngineStats is the engine's aggregate telemetry, computed from the
// per-tenant controllers in canonical order.
type EngineStats struct {
	Tenants int
	Shards  int
	// Ticks is the number of Step calls so far.
	Ticks int64
	// Trained counts tenants whose models are trained.
	Trained int
	Alerts  int
	Steps   int
	// ViolationSeconds sums every tenant's SLO violation time over the
	// whole recorded horizon.
	ViolationSeconds int64
}

// Stats returns the aggregate engine telemetry.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Tenants: len(e.tenants),
		Shards:  len(e.shards),
		Ticks:   e.ticks,
	}
	for _, t := range e.tenants {
		c := t.Controller
		if c.Trained() {
			st.Trained++
		}
		st.Alerts += len(c.alerts)
		st.Steps += len(c.steps)
		st.ViolationSeconds += c.sloLog.ViolationSeconds(0, c.sloLog.End().Add(1))
	}
	return st
}

// engineMagic opens an engine's model snapshot.
const engineMagic = "PEM"

// SaveModels writes every tenant's trained models as one binary
// document.
func (e *Engine) SaveModels(w io.Writer) error {
	enc := binenc.NewEncoder(nil)
	enc.Header(engineMagic, modelsVersion)
	AppendEngineModels(&enc, e)
	return writeDocument(w, &enc)
}

// AppendEngineModels appends the engine snapshot's body — the tenant
// count, then per tenant its ID and a section holding its controller's
// body — for a caller that frames it in a document of its own (the
// server checkpoint); SaveModels frames it alone. An untrained tenant
// fails enc.
func AppendEngineModels(enc *binenc.Encoder, e *Engine) {
	enc.Uvarint(uint64(len(e.tenants)))
	for _, t := range e.tenants {
		enc.String(t.ID)
		mark := enc.Begin()
		t.Controller.appendModels(enc, "control: tenant "+t.ID)
		enc.End(mark)
	}
}

// RestoreModels loads an engine snapshot, restoring every tenant's
// models. The snapshot must cover every tenant in the engine, and no
// other. Every tenant's models are decoded and checked before any is
// installed, so a snapshot that fails leaves every tenant as it was.
func (e *Engine) RestoreModels(r io.Reader) error {
	d, err := readDocument(r, engineMagic)
	if err != nil {
		return err
	}
	return RestoreEngineModels(e, d)
}

// RestoreEngineModels is RestoreModels over a body AppendEngineModels
// wrote, read to the end of d.
func RestoreEngineModels(e *Engine, d *binenc.Decoder) error {
	// An ID and a section prefix take five bytes at least.
	n := d.Len(5)
	bodies := make(map[string][]byte, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.String()
		if _, dup := bodies[id]; dup {
			return fmt.Errorf("control: snapshot has two entries for tenant %s", id)
		}
		bodies[id] = d.Section()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("control: decode engine models: %w", err)
	}
	if extra := len(bodies) - len(e.tenants); extra > 0 {
		return fmt.Errorf("control: snapshot has models for %d tenants this engine does not run", extra)
	}
	decoded := make([][]detector.Detector, len(e.tenants))
	for i, t := range e.tenants {
		body, ok := bodies[t.ID]
		if !ok {
			return fmt.Errorf("control: snapshot has no models for tenant %s", t.ID)
		}
		td := binenc.NewDecoder(body)
		models, err := t.Controller.decodeModels(&td)
		if err != nil {
			return fmt.Errorf("control: tenant %s: %w", t.ID, err)
		}
		decoded[i] = models
	}
	for i, t := range e.tenants {
		t.Controller.installDetectors(decoded[i])
	}
	return nil
}
