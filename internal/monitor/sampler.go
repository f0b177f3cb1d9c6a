package monitor

import (
	"errors"
	"fmt"
	"math/rand"

	"prepare/internal/columnar"
	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/telemetry"
)

// DefaultSamplingInterval is the paper's metric sampling interval (5 s).
const DefaultSamplingInterval = int64(5)

// noiseOrder fixes the per-attribute order in which measurement noise is
// drawn from the RNG. It is part of the determinism contract: the order
// predates the substrate refactor (it follows the original derivation
// sequence, not attribute index order), so seeded experiment results
// stay byte-identical across versions.
var noiseOrder = []metrics.Attribute{
	metrics.CPUTotal, metrics.CPUUser, metrics.CPUSystem,
	metrics.FreeMem, metrics.MemUsed,
	metrics.NetIn, metrics.NetOut,
	metrics.DiskRead, metrics.DiskWrite,
	metrics.Load1, metrics.Load5,
	metrics.CtxSwitch, metrics.PageFaults,
}

// Sampler collects the 13 system-level attributes of each monitored VM
// from any substrate's metric source, adds measurement noise, and
// commits each tick's labeled samples to a columnar store, the control
// loop's sample history. It is the simulated
// analogue of domain-0 libxenstat monitoring, but works identically
// over replayed traces or any other MetricSource.
//
// The sampler tolerates an unreliable source: transient sample errors
// (substrate.ErrUnavailable) are bridged by carrying the VM's last
// known-good vector forward, NaN/Inf/negative readings are sanitized
// against it before discretization ever sees them, and a sensor that
// freezes on one bitwise-identical vector is detected as stuck. Both
// carried and stuck samples count toward a bounded per-VM staleness
// budget; once it is exceeded the synthesized samples are committed
// unrecorded (the control loop still receives them, training does not),
// so a long outage cannot teach the models a flat line.
type Sampler struct {
	source   substrate.MetricSource
	vmIDs    []substrate.VMID
	rng      *rand.Rand
	noiseStd float64
	res      Resilience

	// vms holds each VM's state in vmIDs order (the columnar store's VM
	// order), so the collect loop walks one dense slice.
	vms []vmState

	// ingested counts recorded samples; nil (disabled telemetry) no-ops,
	// as do the resilience counters below.
	ingested     *telemetry.Counter
	carried      *telemetry.Counter
	sanitized    *telemetry.Counter
	stuckSamples *telemetry.Counter
	droppedStale *telemetry.Counter
}

// vmState is one monitored VM's sampling state.
type vmState struct {
	// lastGood is the VM's most recent sanitized raw vector; it seeds
	// carry-forward and per-attribute sanitization fallbacks.
	lastGood metrics.Vector
	haveGood bool
	// staleRun counts consecutive sampling ticks the VM's value was
	// synthesized (carried forward) or judged sensor-stuck.
	staleRun int
	// stuckRun counts consecutive bitwise-identical raw vectors.
	stuckRun int
}

// Resilience tunes the sampler's tolerance of a faulty metric source.
type Resilience struct {
	// MaxStaleTicks bounds how many consecutive sampling ticks a VM's
	// sample may be synthesized (carried forward over a transient error,
	// or repeated by a stuck sensor) and still be recorded to the
	// training history (default 6; one monitoring half-minute at the
	// paper's 5 s interval). Past the bound the control loop still
	// receives the carried value, but the history leaves it out.
	MaxStaleTicks int
	// StuckThreshold is the number of consecutive bitwise-identical raw
	// vectors after which the sensor is judged stuck and the samples
	// count as stale. Zero disables stuck detection (the default: clean
	// simulated sources repeat values legitimately only below any
	// sensible threshold, but replayed or chaos-injected sources should
	// enable it).
	StuckThreshold int
}

func (r Resilience) withDefaults() Resilience {
	if r.MaxStaleTicks == 0 {
		r.MaxStaleTicks = 6
	}
	return r
}

// Config parameterizes the sampler.
type Config struct {
	// NoiseStd is the relative standard deviation of measurement noise
	// applied to each attribute (default 0.03 when zero; negative
	// disables noise entirely, for sources that already carry it, such
	// as replayed traces).
	NoiseStd float64
	// Seed drives the noise generator.
	Seed int64
	// Telemetry receives monitoring counters (nil disables, at zero
	// cost on the sampling path).
	Telemetry *telemetry.Registry
	// Resilience tunes carry-forward, sanitization, and stuck-sensor
	// accounting.
	Resilience Resilience
	// Deprecated: WindowSamples is ignored. The sample history is the
	// columnar store the caller collects into, and its window is the
	// store's (control.Config.HistoryWindowSamples).
	WindowSamples int
}

// NewSampler monitors the given VMs over the metric source.
func NewSampler(source substrate.MetricSource, vmIDs []substrate.VMID, cfg Config) (*Sampler, error) {
	if source == nil {
		return nil, errors.New("monitor: metric source is required")
	}
	if len(vmIDs) == 0 {
		return nil, errors.New("monitor: at least one VM is required")
	}
	seen := make(map[substrate.VMID]bool, len(vmIDs))
	for _, id := range vmIDs {
		if seen[id] {
			return nil, fmt.Errorf("monitor: VM %q listed twice", id)
		}
		seen[id] = true
		// A transiently unavailable sample (a chaos drop, a collector
		// hiccup) must not fail construction: the first collect carries
		// forward instead. Only permanent errors (unknown VM) reject.
		if _, err := source.Sample(id); err != nil && !substrate.IsTransient(err) {
			return nil, fmt.Errorf("monitor: %w", err)
		}
	}
	noise := cfg.NoiseStd
	if noise == 0 {
		noise = 0.03
	}
	ids := make([]substrate.VMID, len(vmIDs))
	copy(ids, vmIDs)
	return &Sampler{
		source:       source,
		vmIDs:        ids,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		noiseStd:     noise,
		res:          cfg.Resilience.withDefaults(),
		vms:          make([]vmState, len(ids)),
		ingested:     cfg.Telemetry.Counter("monitor.samples.ingested"),
		carried:      cfg.Telemetry.Counter("monitor.samples.carried_forward"),
		sanitized:    cfg.Telemetry.Counter("monitor.samples.sanitized"),
		stuckSamples: cfg.Telemetry.Counter("monitor.samples.stuck"),
		droppedStale: cfg.Telemetry.Counter("monitor.samples.dropped_stale"),
	}, nil
}

// Advance moves the metric source to now; call once per simulated
// second (load averages and replay cursors integrate faster than the
// sampling interval).
func (s *Sampler) Advance(now simclock.Time) {
	s.source.Advance(now)
}

// sampleOne runs the full per-VM sampling pipeline for the i-th VM —
// source read, transient carry-forward, sanitization, stuck/staleness
// accounting, measurement noise — writes the noised vector into v, and
// reports whether the VM is within its staleness budget (i.e. the sample
// should be recorded to the training history).
func (s *Sampler) sampleOne(i int, v *metrics.Vector) (bool, error) {
	st := &s.vms[i]
	clean, err := s.source.Sample(s.vmIDs[i])
	synthesized := false
	if err != nil {
		if !substrate.IsTransient(err) {
			return false, fmt.Errorf("monitor: collect %q: %w", s.vmIDs[i], err)
		}
		// Transient gap: carry the last known-good vector forward
		// (zero vector before the first good sample — sanitization
		// fallbacks have nothing better yet either).
		clean = st.lastGood
		synthesized = true
		s.carried.Inc()
	}
	if repaired := SanitizeVector(&clean, &st.lastGood); repaired > 0 {
		s.sanitized.Add(int64(repaired))
	}

	// Staleness accounting: a synthesized sample is stale by
	// definition; a successfully read one may still be stale if the
	// sensor is frozen on one bitwise-identical vector.
	stale := synthesized
	if !synthesized && s.res.StuckThreshold > 0 {
		if st.haveGood && clean == st.lastGood {
			st.stuckRun++
		} else {
			st.stuckRun = 0
		}
		if st.stuckRun >= s.res.StuckThreshold {
			stale = true
			s.stuckSamples.Inc()
		}
	}
	if stale {
		st.staleRun++
	} else {
		st.staleRun = 0
	}
	if !synthesized {
		st.lastGood = clean
		st.haveGood = true
	}

	if s.noiseStd < 0 {
		// Noise off draws nothing and noiseOrder covers every
		// attribute, so the noised vector is the clean one.
		*v = clean
	} else {
		for _, a := range noiseOrder {
			v[int(a)-1] = s.noisy(clean[int(a)-1])
		}
	}
	return st.staleRun <= s.res.MaxStaleTicks, nil
}

// CollectColumnar samples every monitored VM at the given instant and
// commits the noised vectors to the columnar store (VM i of the store is
// the i-th VM given to NewSampler) as one tick labeled with the current
// SLO state. Every VM gets a row even when its sample had to be
// synthesized by carry-forward; past the staleness budget the row is
// committed unrecorded, so the training history leaves the flat line
// out. A tick earlier than the store's latest is refused.
func (s *Sampler) CollectColumnar(now simclock.Time, label metrics.Label, st *columnar.Store) error {
	if st.VMs() != len(s.vmIDs) {
		return fmt.Errorf("monitor: columnar store holds %d VMs, sampler monitors %d", st.VMs(), len(s.vmIDs))
	}
	if st.Ticks() > 0 {
		if last := st.Time(0); now.Before(last) {
			return fmt.Errorf("monitor: tick at %v collected after %v", now, last)
		}
	}
	ingested := 0
	var v metrics.Vector
	for i := range s.vms {
		record, err := s.sampleOne(i, &v)
		if err != nil {
			return err
		}
		st.StageRow(i, &v)
		if record {
			ingested++
		} else {
			st.Unrecord(i)
			s.droppedStale.Inc()
		}
	}
	st.Commit(now, label)
	s.ingested.Add(int64(ingested))
	return nil
}

// noisy draws one attribute's measurement noise; sampleOne calls it
// only when noise is on.
func (s *Sampler) noisy(value float64) float64 {
	v := value * (1 + s.rng.NormFloat64()*s.noiseStd)
	if v < 0 {
		v = 0
	}
	return v
}
