// Package world is the benchmark's own input generator: a seeded
// synthetic fleet of VMs whose 13 monitored attributes carry stationary
// noise around per-VM base levels, with recurring anomaly episodes (CPU
// saturation plus memory exhaustion ramping up, the shape of
// replay.SyntheticTrace) staggered across the fleet. Every workload
// that feeds the controller rows — the two fleet workloads through the
// substrate in this package, the two served workloads through binary
// frames — draws them from here, so the same seed always produces the
// same rows and frames and the program under test sees nothing but the
// generated inputs.
//
// The generator is deliberately cheap (a table lookup and a handful of
// multiply-adds per attribute) so that on the cheap-detector workloads
// the time spent producing inputs stays small next to the time the
// system spends consuming them.
package world

import (
	"fmt"
	"math/rand"

	"prepare/internal/metrics"
)

// SamplingS is the monitoring interval every workload uses (the
// paper's 5 s).
const SamplingS = 5

// noiseRing is the number of precomputed standard-normal draws. Each
// (VM, tick) reads a 16-slot block, so a VM's noise sequence repeats
// after noiseRing/16 ticks — far longer than any timed window.
const noiseRing = 1 << 14

// Config describes one synthetic fleet.
type Config struct {
	// Seed drives base levels, noise, and episode staggering.
	Seed int64
	// VMs is the fleet size.
	VMs int
	// GroupSize partitions the fleet into tenants of this many VMs (the
	// SLO label is per group: violated while any member is deep in an
	// episode). Zero means one group holding the whole fleet.
	GroupSize int
	// TrainWave is the [start, end) second interval of the training
	// episode every VM goes through once, so models fit before the
	// timed window have seen the anomaly. VM starts are jittered by up
	// to TrainJitterS.
	TrainWave    [2]int64
	TrainJitterS int64
	// SteadyFromS is the second recurring episodes begin at.
	SteadyFromS int64
	// PeriodS is the recurrence period of each VM's episode and
	// EpisodeS its length; a VM's phase inside the period is drawn from
	// the seed, which staggers the fleet. EpisodeS/PeriodS is the share
	// of VM-instants inside an episode.
	PeriodS, EpisodeS int64
}

// World is an immutable generated fleet; Row and Violated are pure
// functions of (vm, time), safe for concurrent use.
type World struct {
	cfg    Config
	noise  []float64
	vms    []vmParams
	groups int
}

type vmParams struct {
	cpu, free, netIn, netOut, diskR, diskW float64
	noiseAt                                uint32
	phase                                  int64
	trainShift                             int64
}

// New generates the fleet for cfg.
func New(cfg Config) (*World, error) {
	if cfg.VMs <= 0 {
		return nil, fmt.Errorf("world: %d VMs", cfg.VMs)
	}
	if cfg.GroupSize <= 0 || cfg.GroupSize > cfg.VMs {
		cfg.GroupSize = cfg.VMs
	}
	if cfg.VMs%cfg.GroupSize != 0 {
		return nil, fmt.Errorf("world: %d VMs do not split into groups of %d", cfg.VMs, cfg.GroupSize)
	}
	if cfg.PeriodS <= 0 || cfg.EpisodeS <= 0 || cfg.EpisodeS > cfg.PeriodS {
		return nil, fmt.Errorf("world: episode %ds of period %ds", cfg.EpisodeS, cfg.PeriodS)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The ring carries a 16-slot tail copy of its head so a block read
	// never wraps.
	w := &World{cfg: cfg, noise: make([]float64, noiseRing+16), vms: make([]vmParams, cfg.VMs), groups: cfg.VMs / cfg.GroupSize}
	for i := 0; i < noiseRing; i++ {
		w.noise[i] = rng.NormFloat64()
	}
	copy(w.noise[noiseRing:], w.noise[:16])
	for i := range w.vms {
		p := &w.vms[i]
		p.cpu = 22 + 16*rng.Float64()
		p.free = 280 + 60*rng.Float64()
		p.netIn = 600 + 400*rng.Float64()
		p.netOut = 550 + 400*rng.Float64()
		p.diskR = 40 + 40*rng.Float64()
		p.diskW = 20 + 20*rng.Float64()
		p.noiseAt = uint32(rng.Intn(noiseRing))
		p.phase = rng.Int63n(cfg.PeriodS)
		if cfg.TrainJitterS > 0 {
			p.trainShift = rng.Int63n(cfg.TrainJitterS + 1)
		}
	}
	return w, nil
}

// Config returns the generating configuration (with GroupSize
// resolved).
func (w *World) Config() Config { return w.cfg }

// VMs returns the fleet size.
func (w *World) VMs() int { return len(w.vms) }

// Groups returns the number of tenants the fleet is partitioned into.
func (w *World) Groups() int { return w.groups }

// GroupOf returns the tenant index of a VM.
func (w *World) GroupOf(vm int) int { return vm / w.cfg.GroupSize }

// VMName returns the canonical ID of VM i; names sort in index order.
func VMName(i int) string { return fmt.Sprintf("vm%05d", i) }

// GroupName returns the canonical tenant ID of group g.
func GroupName(g int) string { return fmt.Sprintf("t%03d", g) }

// Progress returns how far VM vm is through an anomaly episode at
// second t, in (0, 1], or 0 outside any episode.
func (w *World) Progress(vm int, t int64) float64 {
	p := &w.vms[vm]
	c := &w.cfg
	if s, e := c.TrainWave[0]+p.trainShift, c.TrainWave[1]+p.trainShift; t >= s && t < e {
		return float64(t-s+1) / float64(e-s)
	}
	if t < c.SteadyFromS {
		return 0
	}
	if u := (t - c.SteadyFromS + p.phase) % c.PeriodS; u < c.EpisodeS {
		return float64(u+1) / float64(c.EpisodeS)
	}
	return 0
}

// NextEpisode returns the second VM vm's next recurring episode begins,
// at or after second from.
func (w *World) NextEpisode(vm int, from int64) int64 {
	c := &w.cfg
	if from < c.SteadyFromS {
		from = c.SteadyFromS
	}
	u := (from - c.SteadyFromS + w.vms[vm].phase) % c.PeriodS
	return from + (c.PeriodS-u)%c.PeriodS
}

// ViolatedAt is the episode depth past which a VM's application-level
// SLO counts as violated (replay.SyntheticTrace's threshold).
const ViolatedAt = 0.25

// Violated reports the SLO state of tenant group g at second t: true
// while any member VM is deeper than a quarter into an episode.
func (w *World) Violated(g int, t int64) bool {
	lo := g * w.cfg.GroupSize
	for vm := lo; vm < lo+w.cfg.GroupSize; vm++ {
		if w.Progress(vm, t) > ViolatedAt {
			return true
		}
	}
	return false
}

// Label is Violated as the metrics label ingest frames carry.
func (w *World) Label(g int, t int64) metrics.Label {
	if w.Violated(g, t) {
		return metrics.LabelAbnormal
	}
	return metrics.LabelNormal
}

// Row writes VM vm's 13 attribute values at second t into dst (indexed
// by Attribute.Index) and returns the VM's episode progress.
func (w *World) Row(vm int, t int64, dst *metrics.Vector) float64 {
	p := &w.vms[vm]
	prog := w.Progress(vm, t)
	// One 16-slot noise block per (VM, sampling tick).
	at := (p.noiseAt + uint32(t/SamplingS)*16) & (noiseRing - 1)
	n := w.noise[at : at+16 : at+16]
	jit := func(i int, base, spread float64) float64 {
		x := base + spread*n[i]
		if x < 0 {
			x = 0
		}
		return x
	}
	cpu := jit(0, p.cpu, 2)
	free := jit(1, p.free, 8)
	if prog > 0 {
		cpu = jit(0, p.cpu+30+35*prog, 2)
		free = jit(1, p.free-50-(p.free-80)*prog, 6)
	}
	dst.Set(metrics.CPUTotal, cpu)
	dst.Set(metrics.CPUUser, cpu*0.72)
	dst.Set(metrics.CPUSystem, cpu*0.28)
	dst.Set(metrics.FreeMem, free)
	dst.Set(metrics.MemUsed, jit(2, 512-free, 5))
	dst.Set(metrics.NetIn, jit(3, p.netIn, 30))
	dst.Set(metrics.NetOut, jit(4, p.netOut, 30))
	dst.Set(metrics.DiskRead, jit(5, p.diskR, 4))
	dst.Set(metrics.DiskWrite, jit(6, p.diskW, 3))
	dst.Set(metrics.Load1, cpu/100)
	dst.Set(metrics.Load5, cpu/110)
	dst.Set(metrics.CtxSwitch, jit(7, 400+35*cpu, 20))
	dst.Set(metrics.PageFaults, jit(8, 40+2*(p.free+20-free), 5))
	return prog
}
