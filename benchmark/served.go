package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"prepare"
	"prepare/benchmark/pace"
	"prepare/benchmark/probes"
	"prepare/benchmark/stats"
	"prepare/benchmark/trace"
	"prepare/benchmark/world"
	"prepare/internal/metrics"
	"prepare/internal/replay"
)

// served_paced shape.
const (
	servedGroupSize = 8
	servedTrainAtS  = 600
	servedRetrainS  = 600
	servedChaosRate = 0.02
	// servedAlertLog is small enough that the alert ring is full in
	// steady state, so every publish pays the full-ring append.
	servedAlertLog = 4096
	// servedRate is the fixed open-loop send rate, samples per second:
	// about a quarter of what the trained pipeline sustains on two
	// cores, so the backlog does not grow.
	servedRate = 2500
	// servedPollEvery is the cursor poll period, which is the resolution
	// of the alert and actuation latencies.
	servedPollEvery = time.Millisecond
)

func servedWorldConfig(seed int64, tenants int, sz sizing) world.Config {
	return world.Config{
		Seed: seed, VMs: tenants * servedGroupSize, GroupSize: servedGroupSize,
		TrainWave: [2]int64{200, 440}, TrainJitterS: 60,
		SteadyFromS: servedTrainAtS,
		// About a tenth of VM-instants sit inside an episode; the smoke
		// pass covers so little simulated time that it needs them denser.
		PeriodS: int64(sz.pick(1500, 300)), EpisodeS: 150,
	}
}

func servedPaced() workload {
	const tenants, smokeTenants = 16, 2
	return workload{
		name: "served_paced",
		why:  "trained TAN tenants behind the HTTP handler at a fixed open-loop rate with a cursor poller: sample to alert to actuation latency through every layer at a rate the backlog does not grow at",
		setup: func(seed int64, sz sizing) (instance, error) {
			return newServed(seed, sz.pick(tenants, smokeTenants), sz)
		},
		verify: func(_ int64, _ sizing, inst instance) (int64, []string) {
			return inst.(*served).verify()
		},
		capture: func(seed int64, sz sizing) (*probes.Capture, error) {
			w, err := world.New(servedWorldConfig(seed, sz.pick(tenants, smokeTenants), sz))
			if err != nil {
				return nil, err
			}
			return probes.CaptureWorld(w, servedTrainAtS, sz.pick(probes.CaptureTimedTicks, smokeCaptureTicks)), nil
		},
	}
}

func servedControl(seed int64, g int) prepare.ControlConfig {
	return prepare.ControlConfig{
		TrainAtS:         servedTrainAtS,
		RetrainIntervalS: servedRetrainS,
		MonitorNoiseStd:  -1, // ingested rows already carry measurement noise
		MonitorSeed:      seed + int64(g),
	}
}

func servedChaos(seed int64, g int) prepare.ChaosPlan {
	return prepare.UniformChaos(seed*1009+int64(g), servedChaosRate)
}

func groupVMs(g, size int) []prepare.VMID {
	vms := make([]prepare.VMID, size)
	for i := range vms {
		vms[i] = prepare.VMID(world.VMName(g*size + i))
	}
	return vms
}

// served is a started, trained server, its frame generator, and the
// records its cursor poller has collected.
type served struct {
	seed int64
	w    *world.World
	srv  *prepare.Server
	h    http.Handler
	fr   *framer
	rw   *respWriter
	buf  []byte

	nextS   int64 // next simulated second to send
	sent    int64 // samples accepted by the handler
	retries int64
	closed  bool

	alerts []prepare.ServerAlert
	audit  []prepare.ServerAuditEntry
}

// newServed builds and starts the server, sends the training prefix
// unpaced, and waits until every shard has ticked through the training
// second, so the timed window opens on trained models.
func newServed(seed int64, tenants int, sz sizing) (*served, error) {
	w, err := world.New(servedWorldConfig(seed, tenants, sz))
	if err != nil {
		return nil, err
	}
	cfgs := make([]prepare.ServerTenant, tenants)
	for g := range cfgs {
		cfgs[g] = prepare.ServerTenant{
			ID:      world.GroupName(g),
			VMs:     groupVMs(g, servedGroupSize),
			Control: servedControl(seed, g),
			Chaos:   servedChaos(seed, g),
		}
	}
	srv, err := prepare.NewServer(cfgs, prepare.ServerConfig{Shards: 2, AlertLogSize: servedAlertLog})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	s := &served{seed: seed, w: w, srv: srv, h: srv.Handler(), fr: newFramer(w), rw: newRespWriter()}
	for s.nextS <= servedTrainAtS {
		if _, err := s.instant(nil, 0); err != nil {
			s.close()
			return nil, fmt.Errorf("served warm-up at t=%d: %w", s.nextS, err)
		}
	}
	if err := probes.WaitTicks(srv, servedTrainAtS); err != nil {
		s.close()
		return nil, fmt.Errorf("served warm-up: %w", err)
	}
	return s, nil
}

// instant sends one frame per tenant for the next sampling instant. A
// frame the server answers with 429 is resent after a short sleep (a
// stall then shows as generator lateness, not as lost samples); any
// other refusal is an error. It returns the number of frames sent.
func (s *served) instant(tr *trace.Tracer, op int64) (int64, error) {
	t := s.nextS
	s.nextS += world.SamplingS
	root := tr.Begin("served.instant", trace.NoSpan, op)
	defer tr.End(root)
	for g := 0; g < s.w.Groups(); g++ {
		enc := tr.Begin("wire.AppendBatch", root, op)
		var err error
		s.buf, err = s.fr.frame(s.buf[:0], g, t, 0, servedGroupSize)
		tr.End(enc)
		if err != nil {
			return 0, err
		}
		status, retries, err := postFrame(s.h, s.rw, tr, root, op, s.buf)
		if err != nil {
			return 0, err
		}
		s.retries += int64(retries)
		if status != http.StatusOK {
			return 0, fmt.Errorf("POST /v1/samples tenant %s t=%d: status %d: %s", world.GroupName(g), t, status, s.rw.body.Bytes())
		}
		s.sent += servedGroupSize
	}
	return int64(s.w.Groups()), nil
}

// seen is when the poller first saw a published record.
type seen struct {
	timeS int64
	at    time.Time
}

// poller reads the alert and audit logs through their since-cursors
// every servedPollEvery, on its own response writer, until stop closes;
// it then reads on until both logs are exhausted.
type poller struct {
	s      *served
	tr     *trace.Tracer
	rw     *respWriter
	polls  int64
	pollUs []float64

	alertSeen, auditSeen []seen
	err                  error
}

type alertsPage struct {
	Alerts    []prepare.ServerAlert `json:"alerts"`
	Next      uint64                `json:"next"`
	Truncated bool                  `json:"truncated"`
}

type auditPage struct {
	Actions   []prepare.ServerAuditEntry `json:"actions"`
	Next      uint64                     `json:"next"`
	Truncated bool                       `json:"truncated"`
}

// get runs one GET through the handler inside a span and, when into is
// not nil, decodes the JSON body into it.
func (s *served) get(tr *trace.Tracer, rw *respWriter, op int64, name, target string, into any) error {
	span := tr.Begin("server.Handler GET "+name, trace.NoSpan, op)
	status, err := serve(s.h, rw, "GET", target, "", nil)
	tr.End(span)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", target, status, rw.body.Bytes())
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(rw.body.Bytes(), into)
}

// once polls both logs and returns how many new records it saw.
func (p *poller) once(alertCur, auditCur *uint64) (int, error) {
	p.polls++
	t0 := time.Now()
	var ap alertsPage
	if err := p.s.get(p.tr, p.rw, p.polls, "/v1/alerts", "/v1/alerts?since="+strconv.FormatUint(*alertCur, 10), &ap); err != nil {
		return 0, err
	}
	at := time.Now()
	p.pollUs = append(p.pollUs, float64(at.Sub(t0).Nanoseconds())/1e3)
	if ap.Truncated {
		return 0, fmt.Errorf("alert cursor %d fell behind the ring", *alertCur)
	}
	*alertCur = ap.Next
	for _, a := range ap.Alerts {
		p.s.alerts = append(p.s.alerts, a)
		p.alertSeen = append(p.alertSeen, seen{a.Time.Seconds(), at})
	}
	var up auditPage
	if err := p.s.get(p.tr, p.rw, p.polls, "/v1/audit", "/v1/audit?since="+strconv.FormatUint(*auditCur, 10), &up); err != nil {
		return 0, err
	}
	at = time.Now()
	if up.Truncated {
		return 0, fmt.Errorf("audit cursor %d fell behind the ring", *auditCur)
	}
	*auditCur = up.Next
	for _, e := range up.Actions {
		p.s.audit = append(p.s.audit, e)
		p.auditSeen = append(p.auditSeen, seen{e.Time.Seconds(), at})
	}
	return len(ap.Alerts) + len(up.Actions), nil
}

func (p *poller) run(stop <-chan struct{}) {
	var alertCur, auditCur uint64
	for {
		select {
		case <-stop:
			// The server has drained: read until nothing new turns up.
			for {
				n, err := p.once(&alertCur, &auditCur)
				if err != nil {
					p.err = err
					return
				}
				if n == 0 {
					return
				}
			}
		default:
		}
		if _, err := p.once(&alertCur, &auditCur); err != nil {
			p.err = err
			return
		}
		time.Sleep(servedPollEvery)
	}
}

func (s *served) run(d time.Duration, tr *trace.Tracer) (runStats, error) {
	var rs runStats
	before := s.srv.Stats()
	firstS := s.nextS
	vms := s.w.VMs()
	pc := pace.New(time.Duration(float64(vms) / servedRate * float64(time.Second)))
	pl := &poller{s: s, tr: tr, rw: newRespWriter()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pl.run(stop)
	}()
	finish := func() {
		close(stop)
		wg.Wait()
	}

	var dues []time.Time
	var busy time.Duration
	for k := 0; pc.Due(k).Sub(pc.Start) < d; k++ {
		dues = append(dues, pc.Wait(k))
		t0 := time.Now()
		frames, err := s.instant(tr, int64(k))
		busy += time.Since(t0)
		rs.ops += frames
		if err != nil {
			finish()
			return rs, err
		}
	}
	// One warm-failover checkpoint, taken while the last instant is still
	// in the pipeline: its barrier stalls both shard workers, which the
	// window pays for in throughput and the last alerts in latency. Taken
	// mid-window it would hold up a tenth of all alerts and put the p90 on
	// the edge of that stall.
	ckptStart := time.Now()
	err := s.get(tr, s.rw, int64(len(dues)), "/v1/checkpoint", "/v1/checkpoint", nil)
	ckptMs, ckptBytes := msSince(ckptStart), float64(s.rw.body.Len())
	if err != nil {
		finish()
		return rs, err
	}
	// Close drains: every accepted frame is applied, ticked and its
	// records published before it returns.
	drain := tr.Begin("server.Close (drain)", trace.NoSpan, int64(len(dues)))
	err = s.srv.Close()
	tr.End(drain)
	s.closed = true
	rs.elapsed = time.Since(pc.Start)
	finish()
	if err != nil {
		return rs, err
	}
	if pl.err != nil {
		return rs, fmt.Errorf("poller: %w", pl.err)
	}
	after := s.srv.Stats()
	rs.vmSteps = after.SamplesApplied - before.SamplesApplied

	// A record stamped with simulated second T is produced by the tick
	// the instant at or after T releases, so its latency runs from that
	// instant's due time.
	latency := func(recs []seen) []float64 {
		var out []float64
		for _, r := range recs {
			k := int((r.timeS - firstS + world.SamplingS - 1) / world.SamplingS)
			if r.timeS < firstS || k >= len(dues) {
				continue // published by the training prefix
			}
			out = append(out, float64(r.at.Sub(dues[k]).Nanoseconds())/1e6)
		}
		return out
	}
	rs.latMs = latency(pl.alertSeen)
	rs.detail("samples_per_s", "1/s", float64(rs.vmSteps)/rs.elapsed.Seconds())
	addLatencyDetails(&rs, "alert_latency_ms")
	if act := latency(pl.auditSeen); len(act) > 0 {
		rs.detail("actuation_latency_ms_p50", "ms", stats.Median(act))
		rs.detail("actuation_latency_samples", "count", float64(len(act)))
	}
	rs.detail("gen_late_ms_p99", "ms", stats.Quantile(stats.Sorted(pc.LateMs), 0.99))
	rs.detail("gen_busy_frac", "frac", busy.Seconds()/rs.elapsed.Seconds())
	rs.detail("backpressure_retries", "count", float64(s.retries))
	rs.detail("alerts_poll_us_p50", "us", stats.Median(pl.pollUs))
	rs.detail("checkpoint_ms", "ms", ckptMs)
	rs.detail("checkpoint_bytes", "B", ckptBytes)
	rs.detail("alerts", "count", float64(len(s.alerts)))
	rs.detail("actions", "count", float64(len(s.audit)))
	return rs, nil
}

// canonical returns the records stamped at or before upTo ordered by
// (time, tenant), stably, with sequence numbers cleared by key: shards
// publish in a nondeterministic interleaving, but each tenant's own
// order is the controller's. key also returns a record's time and
// tenant.
func canonical[T any](in []T, upTo int64, key func(r *T) (timeS int64, tenant string)) []T {
	out := make([]T, 0, len(in))
	for _, r := range in {
		if t, _ := key(&r); t <= upTo {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ti, ni := key(&out[i])
		tj, nj := key(&out[j])
		if ti != tj {
			return ti < tj
		}
		return ni < nj
	})
	return out
}

func canonicalAlerts(in []prepare.ServerAlert, upTo int64) []prepare.ServerAlert {
	return canonical(in, upTo, func(a *prepare.ServerAlert) (int64, string) {
		a.Seq = 0
		return a.Time.Seconds(), a.Tenant
	})
}

func canonicalAudit(in []prepare.ServerAuditEntry, upTo int64) []prepare.ServerAuditEntry {
	return canonical(in, upTo, func(e *prepare.ServerAuditEntry) (int64, string) {
		e.Seq = 0
		return e.Time.Seconds(), e.Tenant
	})
}

// jsonLines renders each record on its own line, the form the streams
// are compared in.
func jsonLines[T any](recs []T) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i], _ = json.Marshal(r) // plain structs of strings and numbers: cannot fail
	}
	return out
}

// diverging counts the lines at which two streams differ, a missing
// line counting as one.
func diverging(got, want [][]byte) int64 {
	var n int64
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || !bytes.Equal(got[i], want[i]) {
			n++
		}
	}
	return n
}

// oracle replays the same rows through one synchronous control loop per
// tenant — append an instant, then advance second by second, single-
// threaded, the order the shard workers keep — and returns the alert
// and audit streams the server must have published.
func (s *served) oracle() ([]prepare.ServerAlert, []prepare.ServerAuditEntry, error) {
	var alerts []prepare.ServerAlert
	var audit []prepare.ServerAuditEntry
	horizon := s.horizon()
	for g := 0; g < s.w.Groups(); g++ {
		vms := groupVMs(g, servedGroupSize)
		sub, err := replay.NewAppendable(vms, replay.Config{})
		if err != nil {
			return nil, nil, err
		}
		app, err := prepare.NewReplayApp(sub)
		if err != nil {
			return nil, nil, err
		}
		loop, err := prepare.NewChaosSubstrate(sub, servedChaos(s.seed, g))
		if err != nil {
			return nil, nil, err
		}
		ctl, err := prepare.NewSubstrateController(prepare.SchemePREPARE, loop, app, servedControl(s.seed, g))
		if err != nil {
			return nil, nil, err
		}
		last := int64(0)
		for t := int64(0); t <= horizon; t += world.SamplingS {
			label := s.w.Label(g, t)
			for i, vm := range vms {
				sm := metrics.Sample{Time: prepare.SimTime(t), Label: label}
				s.w.Row(g*servedGroupSize+i, t, &sm.Values)
				if err := sub.Append(vm, sm); err != nil {
					return nil, nil, err
				}
			}
			for u := last + 1; u <= t; u++ {
				sub.Advance(prepare.SimTime(u))
				if err := ctl.OnTick(prepare.SimTime(u)); err != nil {
					return nil, nil, fmt.Errorf("oracle tenant %s t=%d: %w", world.GroupName(g), u, err)
				}
			}
			last = t
		}
		id := world.GroupName(g)
		for _, a := range ctl.Alerts() {
			alerts = append(alerts, prepare.ServerAlert{Tenant: id, Time: a.Time, VM: a.VM, Score: a.Score, Predicted: a.Predicted})
		}
		for _, st := range ctl.Steps() {
			audit = append(audit, prepare.ServerAuditEntry{Tenant: id, Time: st.Time, VM: st.VM, Kind: st.Kind, Resource: st.Resource, Detail: st.Detail})
		}
	}
	return alerts, audit, nil
}

// verify requires every sent sample to have been applied and the
// published alert and audit streams to equal the oracle's, record for
// record.
func (s *served) verify() (int64, []string) {
	var failed int64
	var notes []string
	st := s.srv.Stats()
	if st.Failure != "" {
		failed++
		notes = append(notes, "pipeline failed: "+st.Failure)
	}
	if st.SamplesApplied != s.sent || st.AppendErrors != 0 {
		failed += (abs64(st.SamplesApplied-s.sent)+st.AppendErrors+servedGroupSize-1)/servedGroupSize + 1
		notes = append(notes, fmt.Sprintf("applied %d of %d sent samples, %d append errors", st.SamplesApplied, s.sent, st.AppendErrors))
	}
	wantAlerts, wantAudit, err := s.oracle()
	if err != nil {
		return failed + 1, append(notes, "oracle: "+err.Error())
	}
	h := s.horizon()
	if n := diverging(jsonLines(canonicalAlerts(s.alerts, h)), jsonLines(canonicalAlerts(wantAlerts, h))); n > 0 {
		failed += n
		notes = append(notes, fmt.Sprintf("%d alert records diverge from the synchronous oracle (%d published, %d expected)", n, len(s.alerts), len(wantAlerts)))
	}
	if n := diverging(jsonLines(canonicalAudit(s.audit, h)), jsonLines(canonicalAudit(wantAudit, h))); n > 0 {
		failed += n
		notes = append(notes, fmt.Sprintf("%d audit records diverge from the synchronous oracle (%d published, %d expected)", n, len(s.audit), len(wantAudit)))
	}
	if len(wantAlerts) == 0 {
		failed++
		notes = append(notes, "the oracle raised no alert: the comparison is vacuous")
	}
	return failed, notes
}

func (s *served) digest(upTo int64) string {
	h := sha256.New()
	for _, line := range jsonLines(canonicalAlerts(s.alerts, upTo)) {
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	for _, line := range jsonLines(canonicalAudit(s.audit, upTo)) {
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (s *served) horizon() int64 { return s.nextS - world.SamplingS }

func (s *served) close() {
	if !s.closed {
		s.closed = true
		_ = s.srv.Close() // an unused spare; nothing to drain
	}
}
