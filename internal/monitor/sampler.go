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
// appends labeled samples to per-VM series. It is the simulated
// analogue of domain-0 libxenstat monitoring, but works identically
// over replayed traces or any other MetricSource.
//
// The sampler tolerates an unreliable source: transient sample errors
// (substrate.ErrUnavailable) are bridged by carrying the VM's last
// known-good vector forward, NaN/Inf/negative readings are sanitized
// against it before discretization ever sees them, and a sensor that
// freezes on one bitwise-identical vector is detected as stuck. Both
// carried and stuck samples count toward a bounded per-VM staleness
// budget; once it is exceeded the synthesized samples stop being
// appended to the training series (the control loop still receives
// them), so a long outage cannot teach the models a flat line.
type Sampler struct {
	source   substrate.MetricSource
	vmIDs    []substrate.VMID
	rng      *rand.Rand
	noiseStd float64
	res      Resilience

	// vms holds each VM's state in vmIDs order (the columnar store's VM
	// order), so the collect loop walks one dense slice; idx serves only
	// the ID-keyed accessors.
	vms []vmState
	idx map[substrate.VMID]int

	// ingested counts appended samples; nil (disabled telemetry) no-ops,
	// as do the resilience counters below.
	ingested     *telemetry.Counter
	carried      *telemetry.Counter
	sanitized    *telemetry.Counter
	stuckSamples *telemetry.Counter
	droppedStale *telemetry.Counter
}

// vmState is one monitored VM's sampling state.
type vmState struct {
	series *metrics.Series
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
	// or repeated by a stuck sensor) and still be appended to the
	// training series (default 6; one monitoring half-minute at the
	// paper's 5 s interval). Past the bound the control loop still
	// receives the carried value, but the series stops recording it.
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
	// WindowSamples bounds each VM's training series to a ring of the
	// most recent samples, capping memory for long-running monitoring.
	// Zero keeps the full history (the default; incremental training
	// does not need old samples, but batch retraining refits from
	// whatever the ring still holds).
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
	for _, id := range vmIDs {
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
	s := &Sampler{
		source:       source,
		vmIDs:        ids,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		noiseStd:     noise,
		res:          cfg.Resilience.withDefaults(),
		vms:          make([]vmState, len(ids)),
		idx:          make(map[substrate.VMID]int, len(ids)),
		ingested:     cfg.Telemetry.Counter("monitor.samples.ingested"),
		carried:      cfg.Telemetry.Counter("monitor.samples.carried_forward"),
		sanitized:    cfg.Telemetry.Counter("monitor.samples.sanitized"),
		stuckSamples: cfg.Telemetry.Counter("monitor.samples.stuck"),
		droppedStale: cfg.Telemetry.Counter("monitor.samples.dropped_stale"),
	}
	for i, id := range ids {
		if cfg.WindowSamples > 0 {
			sr, err := metrics.NewBoundedSeries(cfg.WindowSamples)
			if err != nil {
				return nil, fmt.Errorf("monitor: %w", err)
			}
			s.vms[i].series = sr
		} else {
			s.vms[i].series = metrics.NewSeries(512)
		}
		if _, dup := s.idx[id]; dup {
			return nil, fmt.Errorf("monitor: VM %q listed twice", id)
		}
		s.idx[id] = i
	}
	return s, nil
}

// state returns the VM's sampling state, nil when it is not monitored.
func (s *Sampler) state(id substrate.VMID) *vmState {
	i, ok := s.idx[id]
	if !ok {
		return nil
	}
	return &s.vms[i]
}

// Series returns the sample series of a VM.
func (s *Sampler) Series(id substrate.VMID) (*metrics.Series, error) {
	st := s.state(id)
	if st == nil {
		return nil, fmt.Errorf("monitor: VM %q is not monitored", id)
	}
	return st.series, nil
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
// should be recorded to the training series).
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

	for _, a := range noiseOrder {
		v[int(a)-1] = s.noisy(clean[int(a)-1])
	}
	return st.staleRun <= s.res.MaxStaleTicks, nil
}

// CollectColumnar samples every monitored VM at the given instant,
// labels the samples with the current SLO state, appends them to the
// per-VM series, and stages the noised vectors into the columnar store
// (VM i of the store is the i-th VM given to NewSampler) as one
// committed tick. Every VM gets a row even when its sample had to be
// synthesized by carry-forward; past the staleness budget the training
// series stops recording the flat line.
func (s *Sampler) CollectColumnar(now simclock.Time, label metrics.Label, st *columnar.Store) error {
	if st.VMs() != len(s.vmIDs) {
		return fmt.Errorf("monitor: columnar store holds %d VMs, sampler monitors %d", st.VMs(), len(s.vmIDs))
	}
	ingested := 0
	sm := metrics.Sample{Time: now, Label: label}
	for i := range s.vms {
		record, err := s.sampleOne(i, &sm.Values)
		if err != nil {
			return err
		}
		st.StageRow(i, &sm.Values)
		if record {
			if err := s.vms[i].series.Append(sm); err != nil {
				return fmt.Errorf("monitor: append %q: %w", s.vmIDs[i], err)
			}
			ingested++
		} else {
			s.droppedStale.Inc()
		}
	}
	st.Commit(now, label)
	s.ingested.Add(int64(ingested))
	return nil
}

// StaleTicks returns how many consecutive sampling ticks the VM's
// sample has been synthesized or judged sensor-stuck (0 for a healthy
// source).
func (s *Sampler) StaleTicks(id substrate.VMID) int {
	if st := s.state(id); st != nil {
		return st.staleRun
	}
	return 0
}

// Recording reports whether the VM's samples are currently inside the
// staleness budget and thus being appended to its training series. The
// control loop's incremental trainer mirrors this gate: samples the
// series refuses are fed to the classifier statistics as unlabeled, so
// a frozen sensor cannot teach the model a flat line.
func (s *Sampler) Recording(id substrate.VMID) bool {
	return s.StaleTicks(id) <= s.res.MaxStaleTicks
}

func (s *Sampler) noisy(value float64) float64 {
	if s.noiseStd < 0 {
		return value
	}
	v := value * (1 + s.rng.NormFloat64()*s.noiseStd)
	if v < 0 {
		v = 0
	}
	return v
}

// Dataset bundles each VM's labeled series for offline (trace-driven)
// experiments, keyed by VM ID.
func (s *Sampler) Dataset() map[substrate.VMID][]metrics.Sample {
	out := make(map[substrate.VMID][]metrics.Sample, len(s.vms))
	for i, id := range s.vmIDs {
		out[id] = s.vms[i].series.All()
	}
	return out
}
