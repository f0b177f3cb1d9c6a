// Package loadgen is a deterministic open-loop load generator for the
// controller service. It drives synthetic labeled traces through
// server.Ingest — the exact entry point the HTTP handler uses, minus
// JSON decoding — at a configured wall-clock rate, then reports
// throughput, pipeline-stage latency quantiles, and loss counters as a
// flat JSON document that scripts/check_slo.sh gates in CI.
//
// The generator is open-loop: batches are emitted on a fixed schedule
// regardless of how the pipeline is doing, and batches rejected by
// backpressure are counted, never retried. Below the backpressure
// threshold the report must show zero rejected samples; the short and
// full profiles additionally verify the published alert stream
// byte-for-byte against a synchronous single-threaded controller fed
// the same traces.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"prepare/internal/chaos"
	"prepare/internal/control"
	"prepare/internal/metrics"
	"prepare/internal/replay"
	"prepare/internal/server"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
	"prepare/internal/wire"
)

// Config parameterizes a load-generation run. Zero values take the
// profile's defaults.
type Config struct {
	// Profile names a preset: "short" (CI SLO gate: small fleet, chaos,
	// verified), "ingest" (throughput floor: large fleet, prediction
	// disabled, unpaced), or "full" (nightly: larger verified soak).
	Profile string

	Tenants      int
	VMsPerTenant int
	// HorizonS is the trace length in simulated seconds.
	HorizonS int64
	// TrainAtS is each tenant's training trigger; above HorizonS the
	// control loop never trains and the run measures the pure ingest
	// path.
	TrainAtS int64
	// Rate is the open-loop send rate in samples per wall-clock second;
	// 0 sends as fast as the pipeline accepts enqueues.
	Rate float64
	// Seed keys the synthetic traces and chaos plans.
	Seed int64
	// ChaosRate enables per-tenant fault injection at the given
	// per-opportunity probability.
	ChaosRate float64
	// Verify re-runs every tenant synchronously and requires the
	// published alert stream to match byte-for-byte.
	Verify bool
	// Wire selects the ingest transport: "json" (each batch marshalled
	// once up front, decoded per send through server.IngestJSON — the
	// HTTP/JSON path minus the network), "binary" (default — columnar
	// frames through server.IngestFrame), or "stream" (the same frames
	// over one long-lived server.IngestStream connection). Every choice
	// runs the handler's decode, which the SLO gate exists to measure.
	Wire string
	// AlertsOut, when set, writes the canonical published alert stream
	// as JSON to this path after the run — two runs over the same
	// traces must produce byte-identical files regardless of Wire,
	// which CI pins with a plain diff.
	AlertsOut string

	Shards     int
	QueueDepth int
}

// Wires lists the transport choices.
func Wires() []string { return []string{"json", "binary", "stream"} }

// Profiles returns the preset names.
func Profiles() []string { return []string{"short", "ingest", "full"} }

// ProfileConfig returns the named preset.
func ProfileConfig(name string) (Config, error) {
	// Verified profiles size QueueDepth above the total batch count
	// (tenants/shard × 301 sampling instants) so zero loss is a
	// deterministic property of the run, not of runner speed: the gate
	// then checks the pipeline under load, and the backpressure path is
	// exercised separately by the handler tests.
	switch name {
	case "short":
		return Config{Profile: name, Tenants: 4, VMsPerTenant: 2, HorizonS: 1500,
			TrainAtS: 600, Rate: 20000, Seed: 1, ChaosRate: 0.02, Verify: true,
			Shards: 2, QueueDepth: 1024}, nil
	case "ingest":
		return Config{Profile: name, Tenants: 64, VMsPerTenant: 8, HorizonS: 1500,
			TrainAtS: 1 << 30, Rate: 0, Seed: 1, Shards: 4, QueueDepth: 8192}, nil
	case "full":
		// Paced under the apply stage's sustained rate (~12k samples/sec
		// with full control loops on 4 shards) so queues stay shallow and
		// the latency SLOs measure the pipeline, not backlog drain; the
		// unpaced ingest profile is the saturation test.
		return Config{Profile: name, Tenants: 16, VMsPerTenant: 4, HorizonS: 1500,
			TrainAtS: 600, Rate: 10000, Seed: 1, ChaosRate: 0.02, Verify: true,
			Shards: 4, QueueDepth: 2048}, nil
	}
	return Config{}, fmt.Errorf("loadgen: unknown profile %q (have %v)", name, Profiles())
}

// Report is the flat JSON result. Latencies are seconds (histogram
// bucket upper bounds); throughput is samples per wall-clock second.
type Report struct {
	Profile         string  `json:"profile"`
	Tenants         int     `json:"tenants"`
	VMs             int     `json:"vms"`
	HorizonS        int64   `json:"horizon_s"`
	RateTarget      float64 `json:"rate_target_sps"`
	ElapsedS        float64 `json:"elapsed_s"`
	SamplesSent     int64   `json:"samples_sent"`
	SamplesAccepted int64   `json:"samples_accepted"`
	SamplesRejected int64   `json:"samples_rejected"`
	SamplesApplied  int64   `json:"samples_applied"`
	AppendErrors    int64   `json:"append_errors"`
	Ticks           int64   `json:"ticks"`
	AlertsPublished int64   `json:"alerts_published"`
	StepsPublished  int64   `json:"steps_published"`
	ThroughputSPS   float64 `json:"throughput_sps"`
	Wire            string  `json:"wire"`
	P50IngestS      float64 `json:"p50_ingest_s"`
	P99IngestS      float64 `json:"p99_ingest_s"`
	P99AlertS       float64 `json:"p99_alert_s"`
	P99ActuationS   float64 `json:"p99_actuation_s"`
	// Per-stage transport breakdown (seconds, per batch): encode is the
	// client-side wire encoding, send the ingest-call round trip,
	// decode the server-side wire decoding, apply the append+watermark
	// pass.
	P50EncodeS  float64 `json:"p50_encode_s"`
	P99EncodeS  float64 `json:"p99_encode_s"`
	P50SendS    float64 `json:"p50_send_s"`
	P99SendS    float64 `json:"p99_send_s"`
	P50DecodeS  float64 `json:"p50_decode_s"`
	P99DecodeS  float64 `json:"p99_decode_s"`
	P50ApplyS   float64 `json:"p50_apply_s"`
	P99ApplyS   float64 `json:"p99_apply_s"`
	Verified    bool    `json:"verified"`
	VerifyError string  `json:"verify_error,omitempty"`
}

// JSON renders the report as one flat object.
func (r Report) JSON() []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}

func (c Config) withDefaults() Config {
	if c.Wire == "" {
		c.Wire = "binary"
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.VMsPerTenant <= 0 {
		c.VMsPerTenant = 2
	}
	if c.HorizonS <= 0 {
		c.HorizonS = 1500
	}
	if c.TrainAtS <= 0 {
		c.TrainAtS = 600
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func tenantID(i int) string { return fmt.Sprintf("t%03d", i) }

func (c Config) tenantSeed(i int) int64 { return c.Seed + int64(i)*1009 }

// traces builds the deterministic per-tenant, per-VM trace set.
func (c Config) traces() map[string]map[substrate.VMID][]metrics.Sample {
	out := make(map[string]map[substrate.VMID][]metrics.Sample, c.Tenants)
	episodes := [][2]int64{{200, 500}, {900, 1200}}
	for i := 0; i < c.Tenants; i++ {
		id := tenantID(i)
		vms := make(map[substrate.VMID][]metrics.Sample, c.VMsPerTenant)
		for v := 0; v < c.VMsPerTenant; v++ {
			vm := substrate.VMID(fmt.Sprintf("%s-vm%d", id, v))
			vms[vm] = replay.SyntheticTrace(c.tenantSeed(i)+int64(v)*101, c.HorizonS, episodes)
		}
		out[id] = vms
	}
	return out
}

func (c Config) controlConfig(i int) control.Config {
	return control.Config{TrainAtS: c.TrainAtS, MonitorNoiseStd: -1, MonitorSeed: c.tenantSeed(i)}
}

func (c Config) chaosPlan(i int) chaos.Plan {
	if c.ChaosRate <= 0 {
		return chaos.Plan{}
	}
	return chaos.Uniform(c.tenantSeed(i), c.ChaosRate)
}

func sortedVMs(traces map[substrate.VMID][]metrics.Sample) []substrate.VMID {
	out := make([]substrate.VMID, 0, len(traces))
	for id := range traces {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Run executes the configured load against an in-process server and
// returns the report. The run is deterministic in everything except
// wall-clock timing.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	validWire := false
	for _, w := range Wires() {
		if cfg.Wire == w {
			validWire = true
		}
	}
	if !validWire {
		return Report{}, fmt.Errorf("loadgen: unknown wire %q (have %v)", cfg.Wire, Wires())
	}
	traces := cfg.traces()
	reg := telemetry.New(telemetry.Options{})

	tenantCfgs := make([]server.TenantConfig, 0, cfg.Tenants)
	for i := 0; i < cfg.Tenants; i++ {
		id := tenantID(i)
		tenantCfgs = append(tenantCfgs, server.TenantConfig{
			ID:      id,
			VMs:     sortedVMs(traces[id]),
			Control: cfg.controlConfig(i),
			Chaos:   cfg.chaosPlan(i),
		})
	}
	srv, err := server.New(tenantCfgs, server.Config{
		Shards: cfg.Shards, QueueDepth: cfg.QueueDepth, Telemetry: reg,
	})
	if err != nil {
		return Report{}, err
	}
	if err := srv.Start(); err != nil {
		return Report{}, err
	}

	rep := Report{
		Profile:    cfg.Profile,
		Tenants:    cfg.Tenants,
		VMs:        cfg.Tenants * cfg.VMsPerTenant,
		HorizonS:   cfg.HorizonS,
		RateTarget: cfg.Rate,
		Wire:       cfg.Wire,
	}

	// Precompute the whole send schedule — one batch per tenant per
	// sampling instant — so the timed loop measures the pipeline, not
	// the generator.
	nInstants := cfg.HorizonS/5 + 1
	plan := make([][]server.Batch, nInstants)
	for inst := range plan {
		plan[inst] = make([]server.Batch, cfg.Tenants)
		for ti := range plan[inst] {
			plan[inst][ti].Tenant = tenantID(ti)
		}
	}
	for ti := 0; ti < cfg.Tenants; ti++ {
		id := tenantID(ti)
		for _, vm := range sortedVMs(traces[id]) {
			series := traces[id][vm]
			for i := range series {
				sm := &series[i]
				tm := sm.Time.Seconds()
				if tm < 0 || tm > cfg.HorizonS || tm%5 != 0 {
					continue
				}
				label := "normal"
				switch sm.Label {
				case metrics.LabelAbnormal:
					label = "abnormal"
				case metrics.LabelUnknown:
					label = "unknown"
				}
				b := &plan[tm/5][ti]
				b.Samples = append(b.Samples, server.SampleIn{
					VM: string(vm), TimeS: tm, Label: label, Values: sm.Values[:],
				})
			}
		}
	}

	// Pre-encode the wire bodies — one per tenant per instant, so a full
	// shard queue rejects only that tenant's samples, mirroring
	// independent clients — timing each encode into its own stage
	// histogram, so the timed loop pays only the send itself (a real
	// client would encode on its side of the wire anyway).
	encodeHist := reg.HistogramWith("loadgen.stage.encode", telemetry.LatencyBuckets)
	sendHist := reg.HistogramWith("loadgen.stage.send", telemetry.LatencyBuckets)
	bodies := make([][][]byte, len(plan)) // [instant][tenant] encoded batch, nil when empty
	for inst := range plan {
		bodies[inst] = make([][]byte, cfg.Tenants)
		for ti := range plan[inst] {
			b := &plan[inst][ti]
			if len(b.Samples) == 0 {
				continue
			}
			encStart := time.Now()
			body, err := encodeBatch(cfg.Wire, b)
			if err != nil {
				return rep, fmt.Errorf("loadgen: encode t=%d tenant=%s: %w", inst*5, b.Tenant, err)
			}
			encodeHist.ObserveSince(encStart)
			bodies[inst][ti] = body
		}
	}

	// The stream transport feeds every frame through one long-lived
	// connection; the pipe write is the send, and IngestStream's
	// internal rejection counting stands in for per-request results.
	var streamW *io.PipeWriter
	streamDone := make(chan error, 1)
	if cfg.Wire == "stream" {
		pr, pw := io.Pipe()
		streamW = pw
		go func() {
			_, err := srv.IngestStream(pr)
			pr.CloseWithError(err)
			streamDone <- err
		}()
	}

	send := func(body []byte) error {
		var err error
		switch cfg.Wire {
		case "json":
			_, err = srv.IngestJSON(body)
		case "binary":
			_, err = srv.IngestFrame(body)
		default: // stream
			_, err = streamW.Write(body)
		}
		return err
	}

	// Open-loop send, paced against the wall clock, rejections counted
	// and never retried.
	start := time.Now()
	for inst, batches := range plan {
		if cfg.Rate > 0 {
			// The schedule says sample k leaves at k/Rate seconds; sleep
			// off any lead. Falling behind is never compensated — open
			// loop, not closed.
			due := time.Duration(float64(rep.SamplesSent) / cfg.Rate * float64(time.Second))
			if ahead := due - time.Since(start); ahead > 0 {
				time.Sleep(ahead)
			}
		}
		for ti := range batches {
			b := &batches[ti]
			if len(b.Samples) == 0 {
				continue
			}
			sendStart := time.Now()
			err := send(bodies[inst][ti])
			sendHist.ObserveSince(sendStart)
			if err != nil && err != server.ErrBackpressure {
				srv.Close()
				return rep, fmt.Errorf("loadgen: ingest at t=%d: %w", inst*5, err)
			}
			rep.SamplesSent += int64(len(b.Samples))
		}
	}
	if streamW != nil {
		streamW.Close()
		if err := <-streamDone; err != nil {
			srv.Close()
			return rep, fmt.Errorf("loadgen: stream ingest: %w", err)
		}
	}
	if err := srv.Close(); err != nil {
		return rep, err
	}
	rep.ElapsedS = time.Since(start).Seconds()
	if err := srv.Failure(); err != nil {
		return rep, fmt.Errorf("loadgen: pipeline failed: %w", err)
	}

	st := srv.Stats()
	rep.SamplesAccepted = st.SamplesAccepted
	rep.SamplesRejected = st.SamplesRejected
	rep.SamplesApplied = st.SamplesApplied
	rep.AppendErrors = st.AppendErrors
	rep.Ticks = st.Ticks
	rep.AlertsPublished = st.AlertsPublished
	rep.StepsPublished = st.StepsPublished
	if rep.ElapsedS > 0 {
		rep.ThroughputSPS = float64(rep.SamplesAccepted) / rep.ElapsedS
	}
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["server.ingest.e2e"]; ok {
		rep.P50IngestS = h.Quantile(0.50)
		rep.P99IngestS = h.Quantile(0.99)
	}
	if h, ok := snap.Histograms["server.alert.e2e"]; ok {
		rep.P99AlertS = h.Quantile(0.99)
	}
	if h, ok := snap.Histograms["server.actuation.e2e"]; ok {
		rep.P99ActuationS = h.Quantile(0.99)
	}
	if h, ok := snap.Histograms["loadgen.stage.encode"]; ok {
		rep.P50EncodeS = h.Quantile(0.50)
		rep.P99EncodeS = h.Quantile(0.99)
	}
	if h, ok := snap.Histograms["loadgen.stage.send"]; ok {
		rep.P50SendS = h.Quantile(0.50)
		rep.P99SendS = h.Quantile(0.99)
	}
	if h, ok := snap.Histograms["server.stage.decode"]; ok {
		rep.P50DecodeS = h.Quantile(0.50)
		rep.P99DecodeS = h.Quantile(0.99)
	}
	if h, ok := snap.Histograms["server.stage.apply"]; ok {
		rep.P50ApplyS = h.Quantile(0.50)
		rep.P99ApplyS = h.Quantile(0.99)
	}

	if cfg.Verify {
		if err := verify(cfg, traces, srv); err != nil {
			rep.VerifyError = err.Error()
		} else {
			rep.Verified = true
		}
	}
	if cfg.AlertsOut != "" {
		if err := writeAlerts(cfg.AlertsOut, srv); err != nil {
			return rep, fmt.Errorf("loadgen: write alerts: %w", err)
		}
	}
	return rep, nil
}

// encodeBatch renders one tenant batch for the chosen wire: the JSON
// request body the HTTP handler would receive, or a binary columnar
// frame (shared by the binary and stream transports).
func encodeBatch(wireMode string, b *server.Batch) ([]byte, error) {
	if wireMode == "json" {
		return json.Marshal(struct {
			Batches []server.Batch `json:"batches"`
		}{Batches: []server.Batch{*b}})
	}
	var wb wire.Batch
	wb.Reset([]byte(b.Tenant))
	idx := make(map[string]int, 8)
	for _, in := range b.Samples {
		i, ok := idx[in.VM]
		if !ok {
			i = wb.AddVM([]byte(in.VM))
			idx[in.VM] = i
		}
		var label metrics.Label
		switch in.Label {
		case "normal", "":
			label = metrics.LabelNormal
		case "abnormal":
			label = metrics.LabelAbnormal
		default:
			label = metrics.LabelUnknown
		}
		wb.Add(i, in.TimeS, label, in.Values)
	}
	return wire.AppendBatch(nil, &wb)
}

// writeAlerts dumps the canonical published alert stream — sorted by
// (time, tenant), sequence numbers cleared — so runs over the same
// traces byte-diff equal regardless of transport.
func writeAlerts(path string, srv *server.Server) error {
	alerts := canonicalAlerts(srv.Alerts(0, 0))
	b, err := json.MarshalIndent(alerts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// canonicalAlerts sorts a published stream by (Time, Tenant), stable,
// and clears sequence numbers.
func canonicalAlerts(alerts []server.Alert) []server.Alert {
	out := append([]server.Alert{}, alerts...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Tenant < out[j].Tenant
	})
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

// verify replays every tenant through a synchronous single-threaded
// controller and requires the server's published alert stream to match
// byte-for-byte. Any sample loss makes the streams diverge, so this is
// also the strictest zero-loss check.
func verify(cfg Config, traces map[string]map[substrate.VMID][]metrics.Sample, srv *server.Server) error {
	want := make([]server.Alert, 0)
	for i := 0; i < cfg.Tenants; i++ {
		id := tenantID(i)
		alerts, err := syncAlerts(traces[id], cfg.chaosPlan(i), cfg.controlConfig(i), cfg.HorizonS)
		if err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
		for _, a := range alerts {
			want = append(want, server.Alert{Tenant: id, Time: a.Time, VM: a.VM, Score: a.Score, Predicted: a.Predicted})
		}
	}
	got := srv.Alerts(0, 0)
	wb, _ := json.Marshal(canonicalAlerts(want))
	gb, _ := json.Marshal(canonicalAlerts(got))
	if string(wb) != string(gb) {
		return fmt.Errorf("alert stream diverges from the synchronous controller: got %d alerts, want %d", len(got), len(want))
	}
	return nil
}

// syncAlerts is the synchronous oracle: the same append-then-advance
// sequence the server's shard workers run, single-threaded.
func syncAlerts(traces map[substrate.VMID][]metrics.Sample, plan chaos.Plan, cc control.Config, horizon int64) ([]control.AlertEvent, error) {
	vms := sortedVMs(traces)
	sub, err := replay.NewAppendable(vms, replay.Config{})
	if err != nil {
		return nil, err
	}
	app, err := replay.NewApp(sub)
	if err != nil {
		return nil, err
	}
	var loop substrate.Substrate = sub
	if plan.Enabled() {
		if loop, err = chaos.New(sub, plan); err != nil {
			return nil, err
		}
	}
	cc.MonitorNoiseStd = -1
	ctl, err := control.New(control.SchemePREPARE, loop, app, cc)
	if err != nil {
		return nil, err
	}
	last := int64(0)
	for tm := int64(0); tm <= horizon; tm += 5 {
		for _, vm := range vms {
			for _, sm := range traces[vm] {
				if sm.Time.Seconds() == tm {
					if err := sub.Append(vm, sm); err != nil {
						return nil, err
					}
				}
			}
		}
		for s := last + 1; s <= tm; s++ {
			sub.Advance(simclock.Time(s))
			if err := ctl.OnTick(simclock.Time(s)); err != nil {
				return nil, err
			}
		}
		last = tm
	}
	return ctl.Alerts(), nil
}
