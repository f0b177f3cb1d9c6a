package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"prepare/benchmark/probes"
	"prepare/benchmark/stats"
	"prepare/benchmark/trace"
)

// setupRepeats is how many times a run sets its workload up: setup_s is
// the median, and the timed pass runs on the last copy.
const setupRepeats = 5

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run of one workload: the document the
// driver reads from the last line of standard output.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// The rest is for the human-readable report only.
	details []detail
	notes   []string
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// addLatencyDetails reports the pass's latency samples under the
// workload's own name for them: the median, and the highest percentile
// with at least ten samples beyond it, named by that percentile.
func addLatencyDetails(rs *runStats, prefix string) {
	if len(rs.latMs) == 0 {
		return
	}
	s := stats.Sorted(rs.latMs)
	rs.detail(prefix+"_p50", "ms", stats.Quantile(s, 0.5))
	if p := stats.HighestPercentile(len(s)); p > 0 {
		rs.detail(fmt.Sprintf("%s_p%s", prefix, stats.PercentileLabel(p)), "ms", stats.Quantile(s, p))
	}
	rs.detail(prefix+"_samples", "count", float64(len(s)))
}

// heapSampler tracks the peak of the live-plus-unswept heap over a
// timed pass. It reads runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

// setUp sets the workload up n times, closing all but the last copy,
// and returns that copy with the median set-up time in seconds.
func setUp(w workload, seed int64, sz sizing, n int) (instance, float64, error) {
	var inst instance
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		next, err := w.setup(seed, sz)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = next
	}
	return inst, stats.Median(times), nil
}

// timedPass collects garbage left by set-up, then runs the instance's
// timed window under the heap sampler.
func timedPass(inst instance, d time.Duration, tr *trace.Tracer) (runStats, float64, error) {
	runtime.GC()
	hs := startHeapSampler()
	rs, err := inst.run(d, tr)
	return rs, hs.peakMB(), err
}

// runEndToEnd is the untraced run: set-up, one timed window, and the
// correctness check. Its metrics are the end-to-end ones.
func runEndToEnd(w workload, seed int64, d time.Duration, sz sizing) (outcome, error) {
	n := setupRepeats
	if sz.smoke {
		n = 1
	}
	inst, setupS, err := setUp(w, seed, sz, n)
	if err != nil {
		return outcome{}, err
	}
	defer inst.close()
	rs, peakMB, err := timedPass(inst, d, nil)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: timed pass: %w", w.name, err)
	}
	if len(rs.latMs) == 0 || rs.vmSteps == 0 || rs.elapsed <= 0 {
		return outcome{}, fmt.Errorf("%s: the timed pass measured nothing (%d ops, %d VM steps)", w.name, rs.ops, rs.vmSteps)
	}
	vfailed, vnotes := w.verify(seed, sz, inst)
	lat := stats.Sorted(rs.latMs)
	out := outcome{
		Attempted: rs.ops,
		Failed:    rs.failed + vfailed,
		Metrics: map[string]value{
			"vm_steps_per_s": {float64(rs.vmSteps) / rs.elapsed.Seconds(), "1/s"},
			"latency_ms_p50": {stats.Quantile(lat, 0.5), "ms"},
			"latency_ms_p90": {stats.Quantile(lat, 0.9), "ms"},
			"peak_heap_mb":   {peakMB, "MB"},
			"setup_s":        {setupS, "s"},
		},
		details: rs.details,
		notes:   append(rs.notes, vnotes...),
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// runTraced is the traced run. It measures half the window untraced and
// half traced on two fresh copies of the workload (the difference is
// the tracing overhead, and the two output digests must agree), writes
// the spans out, and replays the workload's captured inputs through
// every per-layer probe. Its metrics are the per-layer ones.
func runTraced(w workload, seed int64, d time.Duration, sz sizing, outDir string) (outcome, error) {
	half := d / 2
	pass := func(tr *trace.Tracer) (instance, runStats, error) {
		inst, _, err := setUp(w, seed, sz, 1)
		if err != nil {
			return nil, runStats{}, err
		}
		rs, _, err := timedPass(inst, half, tr)
		if err != nil {
			inst.close()
			return nil, rs, fmt.Errorf("%s: timed pass: %w", w.name, err)
		}
		return inst, rs, nil
	}
	plain, prs, err := pass(nil)
	if err != nil {
		return outcome{}, err
	}
	defer plain.close()
	tr := trace.New()
	traced, trs, err := pass(tr)
	if err != nil {
		return outcome{}, err
	}
	defer traced.close()

	out := outcome{
		Attempted: prs.ops + trs.ops,
		Failed:    prs.failed + trs.failed,
		Metrics:   map[string]value{},
		details:   trs.details,
		notes:     append(prs.notes, trs.notes...),
	}
	upTo := plain.horizon()
	if h := traced.horizon(); h < upTo {
		upTo = h
	}
	if a, b := plain.digest(upTo), traced.digest(upTo); a != b {
		out.Failed += trs.ops
		out.notes = append(out.notes, fmt.Sprintf("output digest up to t=%d differs between the untraced (%s) and the traced (%s) pass", upTo, a, b))
	}

	spans := tr.Spans()
	if err := trace.Write(filepath.Join(outDir, "trace."+w.name+".json"), w.name, seed, spans); err != nil {
		return outcome{}, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	rate := func(rs runStats) float64 { return float64(rs.vmSteps) / rs.elapsed.Seconds() }
	out.Metrics["bench.trace_overhead_frac"] = value{1 - rate(trs)/rate(prs), "frac"}
	out.Metrics["bench.trace_spans"] = value{float64(len(spans)), "count"}
	lat := stats.Sorted(trs.latMs)
	tail := stats.HighestPercentile(len(lat))
	if tail == 0 {
		tail = 0.5 // too few samples for any tail: quote the median
	}
	out.Metrics["bench.latency_ms_tail"] = value{stats.Quantile(lat, tail), "ms"}
	out.Metrics["bench.latency_tail_pct"] = value{100 * tail, "%"}
	out.Metrics["bench.latency_samples"] = value{float64(len(lat)), "count"}

	c, err := w.capture(seed, sz)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: capture: %w", w.name, err)
	}
	ms, err := probes.RunAll(c, probes.Env{Smoke: sz.smoke})
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, m := range ms {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	out.Correct = out.Failed == 0
	return out, nil
}
