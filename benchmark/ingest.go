package main

import (
	"fmt"
	"net/http"
	"time"

	"prepare"
	"prepare/benchmark/probes"
	"prepare/benchmark/trace"
	"prepare/benchmark/world"
)

// ingest_flood shape.
const (
	floodGroupSize  = 16
	floodFrameVMs   = 8 // two frames per tenant-instant: the watermark sees partial instants
	floodWarmTicks  = 40
	floodNeverTrain = int64(1) << 40
)

func floodWorldConfig(seed int64, tenants int) world.Config {
	return world.Config{
		Seed: seed, VMs: tenants * floodGroupSize, GroupSize: floodGroupSize,
		TrainWave: [2]int64{60, 180}, TrainJitterS: 20,
		SteadyFromS: 300, PeriodS: 1500, EpisodeS: 150,
	}
}

func ingestFlood() workload {
	const tenants, smokeTenants = 64, 4
	return workload{
		name: "ingest_flood",
		why:  "binary frames flooded through the HTTP handler into a server that never trains: wire, queue/apply/watermark, replay and monitor collect do all the work and detectors none",
		setup: func(seed int64, sz sizing) (instance, error) {
			return newFlood(seed, sz.pick(tenants, smokeTenants), sz)
		},
		verify: func(_ int64, _ sizing, inst instance) (int64, []string) {
			return inst.(*flood).verify()
		},
		capture: func(seed int64, sz sizing) (*probes.Capture, error) {
			w, err := world.New(floodWorldConfig(seed, sz.pick(tenants, smokeTenants)))
			if err != nil {
				return nil, err
			}
			return probes.CaptureWorld(w, 300, sz.pick(probes.CaptureTimedTicks, smokeCaptureTicks)), nil
		},
	}
}

// flood is a started server plus the closed-loop frame generator.
type flood struct {
	w   *world.World
	srv *prepare.Server
	h   http.Handler
	fr  *framer
	rw  *respWriter
	buf []byte

	nextS   int64 // next simulated second to send
	sent    int64 // samples accepted by the handler
	frames  int64
	retries int64
	closed  bool
}

// newFlood builds and starts the server and floods a short warm-up so
// decode pools, arenas and substrate buffers are at their steady size
// when the timed window opens.
func newFlood(seed int64, tenants int, sz sizing) (*flood, error) {
	w, err := world.New(floodWorldConfig(seed, tenants))
	if err != nil {
		return nil, err
	}
	cfgs := make([]prepare.ServerTenant, tenants)
	for g := range cfgs {
		vms := make([]prepare.VMID, floodGroupSize)
		for i := range vms {
			vms[i] = prepare.VMID(world.VMName(g*floodGroupSize + i))
		}
		cfgs[g] = prepare.ServerTenant{
			ID:  world.GroupName(g),
			VMs: vms,
			// A bounded history keeps the heap independent of how many
			// samples the window manages to push through.
			Control: prepare.ControlConfig{TrainAtS: floodNeverTrain, HistoryWindowSamples: fleetHistory, MonitorSeed: seed + int64(g)},
		}
	}
	srv, err := prepare.NewServer(cfgs, prepare.ServerConfig{Shards: 2})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	f := &flood{w: w, srv: srv, h: srv.Handler(), fr: newFramer(w), rw: newRespWriter()}
	for k := 0; k < sz.pick(floodWarmTicks, 4); k++ {
		if failed, err := f.instant(nil, nil); err != nil || failed > 0 {
			f.close()
			return nil, fmt.Errorf("flood warm-up at t=%d: %d frames failed: %v", f.nextS, failed, err)
		}
	}
	return f, nil
}

// instant sends every tenant's two frames for the next sampling
// instant (postFrame resends one the server refuses with 429). It
// returns how many frames failed for good.
func (f *flood) instant(tr *trace.Tracer, rs *runStats) (failed int64, err error) {
	t := f.nextS
	f.nextS += world.SamplingS
	for g := 0; g < f.w.Groups(); g++ {
		for lo := 0; lo < floodGroupSize; lo += floodFrameVMs {
			opStart := time.Now()
			op := f.frames
			root := tr.Begin("flood.frame", trace.NoSpan, op)
			enc := tr.Begin("wire.AppendBatch", root, op)
			f.buf, err = f.fr.frame(f.buf[:0], g, t, lo, floodFrameVMs)
			tr.End(enc)
			if err != nil {
				return failed, err
			}
			f.frames++
			status, retries, err := postFrame(f.h, f.rw, tr, root, op, f.buf)
			if err != nil {
				return failed, err
			}
			f.retries += int64(retries)
			tr.End(root)
			if status == http.StatusOK {
				f.sent += floodFrameVMs
			} else {
				failed++
			}
			if rs != nil {
				rs.latMs = append(rs.latMs, msSince(opStart))
				rs.ops++
			}
		}
	}
	return failed, nil
}

func (f *flood) run(d time.Duration, tr *trace.Tracer) (runStats, error) {
	var rs runStats
	before := f.srv.Stats()
	retries0 := f.retries
	start := time.Now()
	for time.Since(start) < d {
		failed, err := f.instant(tr, &rs)
		rs.failed += failed
		if err != nil {
			return rs, err
		}
	}
	sendDone := time.Now()
	// Close drains: every accepted frame is applied and ticked before it
	// returns, so the window runs from first send to drained.
	drain := tr.Begin("server.Close (drain)", trace.NoSpan, rs.ops)
	err := f.srv.Close()
	tr.End(drain)
	f.closed = true
	rs.elapsed = time.Since(start)
	if err != nil {
		return rs, err
	}
	after := f.srv.Stats()
	rs.vmSteps = after.SamplesApplied - before.SamplesApplied
	rs.detail("samples_per_s", "1/s", float64(rs.vmSteps)/rs.elapsed.Seconds())
	rs.detail("backpressure_retries", "count", float64(f.retries-retries0))
	rs.detail("drain_ms", "ms", msSince(sendDone))
	rs.detail("server_ticks", "count", float64(after.Ticks-before.Ticks))
	addLatencyDetails(&rs, "ingest_call_ms")
	return rs, nil
}

// verify checks the drained server's counters against what the
// generator sent: every sample applied exactly once, none dropped by
// the append path, every shard ticked through the last instant, and —
// the server never trains — nothing published.
func (f *flood) verify() (int64, []string) {
	var failed int64
	var notes []string
	st := f.srv.Stats()
	if err := f.srv.Failure(); err != nil {
		failed++
		notes = append(notes, "pipeline failed: "+err.Error())
	}
	if st.SamplesApplied != f.sent {
		failed += (abs64(st.SamplesApplied-f.sent) + floodFrameVMs - 1) / floodFrameVMs
		notes = append(notes, fmt.Sprintf("applied %d samples, sent %d", st.SamplesApplied, f.sent))
	}
	if st.AppendErrors != 0 {
		failed += st.AppendErrors
		notes = append(notes, fmt.Sprintf("%d append errors", st.AppendErrors))
	}
	if want := int64(st.Shards) * (f.nextS - world.SamplingS); st.Ticks != want {
		failed++
		notes = append(notes, fmt.Sprintf("server ticked %d times, want %d", st.Ticks, want))
	}
	if st.AlertsPublished != 0 || st.StepsPublished != 0 {
		failed++
		notes = append(notes, "an untrained server published alerts or actions")
	}
	return failed, notes
}

// digest: a server that never trains has one output, that it published
// nothing. How much it applied depends on how far the window got.
func (f *flood) digest(int64) string {
	st := f.srv.Stats()
	return fmt.Sprintf("alerts=%d actions=%d", st.AlertsPublished, st.StepsPublished)
}

func (f *flood) horizon() int64 { return f.nextS - world.SamplingS }

func (f *flood) close() {
	if !f.closed {
		f.closed = true
		_ = f.srv.Close() // an unused spare; nothing to drain
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
