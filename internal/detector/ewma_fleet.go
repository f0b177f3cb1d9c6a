package detector

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"prepare/internal/metrics"
)

// FleetBlock is the number of lanes the blocked transpose takes at a
// time: one cache line of each tick's line. A fleet's lane stride is a
// multiple of it, so ranges of lanes that start on a multiple of it
// share no cache line of the window or of the fleet's state.
const FleetBlock = 8

// EWMAFleet is the state of a set of EWMA detectors, one per lane: the
// Holt filters, the robust baselines and the last decisions. Every
// per-attribute vector is laid out [attribute][lane], value j of lane i
// at j*stride+i, so one attribute of every lane is one line, as a
// columnar store lays out one attribute of every VM (DESIGN.md, "The
// tick in the store's layout"). A standalone EWMA is the one-lane case,
// stride 1; a fleet of more lanes pads its stride to FleetBlock.
type EWMAFleet struct {
	opts         EWMAOptions
	dims, stride int
	// The Holt filters (level, trend) and the robust baselines, each
	// [attribute][lane]: center and scale are fit at training and then
	// adapted by winsorized EW updates as samples stream (Adapt), and
	// scale0, the trained scale, floors the adapted one at a quarter so
	// quiet stretches cannot shrink it into hypersensitivity.
	level, trend, center, scale, scale0 []float64
	// By lane: the samples streamed, whether trained, the last decision
	// and whether it is current (Verdict's), and the lane's detector.
	n       []int64
	trained []bool
	dec     []Decision
	valid   []bool
	dets    []*EWMA

	// Tick's per-lane accumulators, grown by the first tick: sums holds
	// the sums of squared clamped deviations over the loud attributes
	// at steps 0, steps and steps-1, in three runs of acc lanes, and
	// flags one bit a lane, FleetBlock lanes a byte, in two runs of
	// acc/FleetBlock bytes: the lanes a loud attribute rules out the
	// away shortcut for, and those it rules out the toward one for.
	acc   int
	sums  []float64
	flags []uint8
}

// newEWMAFleet lays out an untrained state of lanes lanes over dims
// attributes with options opts, and a detector for each lane.
func newEWMAFleet(lanes, dims int, opts EWMAOptions) *EWMAFleet {
	stride := lanes
	if lanes > 1 {
		stride = roundUp(lanes, FleetBlock)
	}
	size := dims * stride
	vec := make([]float64, 5*size)
	f := &EWMAFleet{
		opts:    opts,
		dims:    dims,
		stride:  stride,
		level:   vec[0*size : 1*size : 1*size],
		trend:   vec[1*size : 2*size : 2*size],
		center:  vec[2*size : 3*size : 3*size],
		scale:   vec[3*size : 4*size : 4*size],
		scale0:  vec[4*size : 5*size : 5*size],
		n:       make([]int64, lanes),
		trained: make([]bool, lanes),
		dec:     make([]Decision, lanes),
		valid:   make([]bool, lanes),
		dets:    make([]*EWMA, lanes),
	}
	for i := range f.dets {
		f.dets[i] = newLane(f, i)
	}
	return f
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// JoinEWMA lays dets out as the lanes of one fleet, dets[i] as lane i,
// and returns the fleet. Each detector's state moves into its lane, and
// the detector reads and writes it there from then on; a detector is
// the lane of one fleet at a time. When dets already are the lanes of
// one fleet, in order, that fleet is returned as it is, without
// allocating. Every detector must be over every attribute
// (metrics.NumAttributes), and all must share one option set; otherwise
// JoinEWMA fails and no detector changes.
func JoinEWMA(dets []*EWMA) (*EWMAFleet, error) {
	if len(dets) == 0 {
		return nil, errors.New("detector: an ewma fleet needs at least one detector")
	}
	f := dets[0].f
	if f.holds(dets) {
		return f, nil
	}
	opts := f.opts
	for i, e := range dets {
		if e.f.dims != metrics.NumAttributes || e.f.opts != opts {
			return nil, fmt.Errorf("detector: ewma lane %d: a fleet needs every detector over every attribute with one option set", i)
		}
	}
	f = newEWMAFleet(len(dets), metrics.NumAttributes, opts)
	for i, e := range dets {
		f.take(i, e)
	}
	return f, nil
}

// holds reports whether dets are f's lanes, in order.
func (f *EWMAFleet) holds(dets []*EWMA) bool {
	if len(f.dets) != len(dets) {
		return false
	}
	for i, e := range dets {
		if e.f != f || e.lane != i {
			return false
		}
	}
	return true
}

// take copies e's lane into lane i of f and makes e that lane.
func (f *EWMAFleet) take(i int, e *EWMA) {
	src := e.f
	for j := range f.dims {
		d, s := j*f.stride+i, e.at(j)
		f.level[d], f.trend[d] = src.level[s], src.trend[s]
		f.center[d], f.scale[d], f.scale0[d] = src.center[s], src.scale[s], src.scale0[s]
	}
	f.n[i], f.trained[i] = src.n[e.lane], src.trained[e.lane]
	f.dec[i], f.valid[i] = src.dec[e.lane], src.valid[e.lane]
	e.f, e.lane = f, i
	f.dets[i] = e
}

// Decision returns lane i's decision from the last scoring tick.
func (f *EWMAFleet) Decision(i int) Decision { return f.dec[i] }

// FleetTick is the newest tick of a fleet's samples: one line per
// attribute across the fleet's lanes (its VMs). A columnar store is one.
type FleetTick interface {
	Column(a metrics.Attribute) []float64
}

// Tick advances every lane by one sample, lane i taking value i of
// each attribute's line of src, as its detector's Observe would, and
// with score set scores every lane over lookaheadS as its Score would,
// to the bit: Decision and each detector's Verdict read the result.
// Without score the lanes' last decisions lapse, as after Observe.
//
// Each attribute's line is one pass over the lanes (tickLine): the
// Holt step, the baseline's adaptation and, with score, Score's test of
// the window's ends, added into each lane's sums. Then each lane is
// settled from its sums (DESIGN.md, "The tick in the store's layout"):
// a lane whose loud attributes all move toward their centers, or that
// has none, scores its step-0 sum at step 0; one whose loud attributes
// all move away scores its far end's sum at the far end, when the step
// before scores less; every other lane (a plateau, a mix, a crossing or
// a NaN) is scored by its detector's Score. Every lane must be trained,
// and the fleet over every attribute.
func (f *EWMAFleet) Tick(src FleetTick, lookaheadS int64, score bool) error {
	lanes := len(f.dets)
	if f.dims != metrics.NumAttributes {
		return fmt.Errorf("detector: an ewma fleet tick needs %d attributes, not %d", metrics.NumAttributes, f.dims)
	}
	if slices.Contains(f.trained, false) {
		return errors.New("detector: ewma not trained")
	}
	steps := f.opts.windowSteps(lookaheadS)
	p := tickParams{
		a: f.opts.Alpha, b: f.opts.Beta,
		slack: f.opts.Slack, h: float64(steps), hm: float64(steps - 1),
		adapt: f.opts.Adapt > 0, score: score,
	}
	if p.adapt {
		p.g, p.gk = f.opts.Adapt, f.opts.Adapt*1.2533
	}
	if score {
		f.growAcc()
		clear(f.sums)
		clear(f.flags)
	}
	for a := metrics.CPUUser; a <= metrics.PageFaults; a++ {
		x := src.Column(a)
		if len(x) != lanes {
			return fmt.Errorf("detector: an ewma fleet of %d lanes ticked with a line of %d", lanes, len(x))
		}
		f.tickLine(a.Index(), x, &p)
	}
	for i := range f.n {
		f.n[i]++
	}
	if !score {
		clear(f.valid)
		return nil
	}
	return f.settle(lookaheadS, steps)
}

// growAcc sizes the tick's accumulators for the fleet's lanes.
func (f *EWMAFleet) growAcc() {
	if f.sums == nil {
		f.acc = roundUp(len(f.dets), FleetBlock)
		f.sums = make([]float64, 3*f.acc)
		f.flags = make([]uint8, 2*f.acc/FleetBlock)
	}
}

// tickParams are the scalars of a tick: the smoothing, the adaptation
// rate g and g*1.2533 (adaptStep's products), the slack, the window's
// last step and the one before it, and what the tick does beyond the
// Holt step.
type tickParams struct {
	a, b, g, gk, slack, h, hm float64
	adapt, score              bool
}

// tickLine runs attribute j's line of a tick: lane i takes x[i].
func (f *EWMAFleet) tickLine(j int, x []float64, p *tickParams) {
	lanes, row := len(x), j*f.stride
	level, trend := f.level[row:row+lanes], f.trend[row:row+lanes]
	center, scale, scale0 := f.center[row:row+lanes], f.scale[row:row+lanes], f.scale0[row:row+lanes]
	if laneKernel == laneAVX512 {
		var sums *float64
		var flags *uint8
		if p.score {
			sums, flags = &f.sums[0], &f.flags[0]
		}
		tickLineAVX512(&x[0], &level[0], &trend[0], &center[0], &scale[0], &scale0[0], &f.n[0],
			sums, f.acc, flags, f.acc/FleetBlock, lanes, p.a, p.b, p.g, p.gk, p.slack, p.h, p.hm, p.adapt, p.score)
		return
	}
	tickLineGo(x, level, trend, center, scale, scale0, f.n, f.sums, f.acc, f.flags, p)
}

// settle turns each lane's sums into its decision after a scoring
// tick (see Tick), and hands the lanes the sums cannot settle to their
// detectors' Score.
func (f *EWMAFleet) settle(lookaheadS int64, steps int) error {
	sum0, sumH, sumM := f.sums[:f.acc], f.sums[f.acc:2*f.acc], f.sums[2*f.acc:]
	notAway, notToward := f.flags[:f.acc/FleetBlock], f.flags[f.acc/FleetBlock:]
	for i, e := range f.dets {
		bit := uint8(1) << (i % FleetBlock)
		var best float64
		step, ok := 0, false
		switch {
		case notToward[i/FleetBlock]&bit == 0:
			best = math.Sqrt(sum0[i])
			ok = !math.IsNaN(best)
		case notAway[i/FleetBlock]&bit == 0:
			best, step = math.Sqrt(sumH[i]), steps
			ok = math.Sqrt(sumM[i]) < best
		}
		if !ok {
			if _, err := e.Score(lookaheadS); err != nil {
				return err
			}
			continue
		}
		f.dec[i] = Decision{Abnormal: best > f.opts.Threshold, Score: best, LeadSteps: step}
		f.valid[i] = true
	}
	return nil
}

// FleetWindow is the fleet history a fleet fit reads, in the layout a
// columnar store keeps it (columnar.Window is one): Ticks held ticks,
// oldest first, each with one line per attribute across the fleet's
// lanes (its VMs), the line of which lanes' rows belong to their
// histories, and the tick's label.
type FleetWindow interface {
	Ticks() int
	Line(k int, a metrics.Attribute) []float64
	Recorded(k int) []bool
	Label(k int) metrics.Label
}

// errNoTrainingRows is Train's refusal of an empty history.
var errNoTrainingRows = errors.New("detector: ewma needs at least one training row")

// fleetChunk is the number of lanes the fleet fit warms before it fits
// their baselines: a chunk's lines over a 128-tick window (512 KB per
// attribute) stay in cache from the warm-up to the blocked transpose.
const fleetChunk = 512

// EWMAFleetFit is one training worker's working memory for Fit. The
// zero value is ready to use, and a kept one refits without allocating
// once it has grown to the window and lane range it fits.
type EWMAFleetFit struct {
	lines [][]float64 // one attribute's line per held tick, the range's lanes
	recs  [][]bool    // each held tick's recorded line, the range's lanes
	// Bit k%64 of word (k/64)*m+i of rec is set where lane i's row at
	// tick k is recorded, and of keep where it belongs to the lane's
	// baseline, for the m lanes of the range.
	rec, keep []uint64
	cols      []float64 // a block's baseline columns, Ticks apart
	fit       metrics.RobustFitter
}

// Fit refits lanes lo..hi-1 of f from w's held ticks, each exactly as
// Train fits the lane's detector from its recorded rows and their
// labels (DESIGN.md, "The refit in the store's layout"):
//   - the warm-up runs holtStep with lanes = VMs over each attribute's
//     lines, straight into the fleet's lines, so each lane replays its
//     recorded rows in order;
//   - a blocked transpose writes each lane's baseline rows, those not
//     labelled abnormal or, when that leaves none, every recorded one,
//     into one column per attribute for RobustFitter.FitColumn, which
//     fits the lane's center and scale in place.
//
// A lane without a recorded row fails the fit with Train's error
// before any lane changes; Fit returns that lane.
func (ff *EWMAFleetFit) Fit(w FleetWindow, f *EWMAFleet, lo, hi int) (lane int, err error) {
	m, ticks := hi-lo, w.Ticks()
	if m <= 0 {
		return 0, nil
	}
	if f.dims != metrics.NumAttributes {
		return lo, fmt.Errorf("detector: a fleet fit needs %d attributes, not %d", metrics.NumAttributes, f.dims)
	}
	ff.grow(ticks, m)
	clear(ff.rec)
	clear(ff.keep)
	for k := 0; k < ticks; k++ {
		rec := w.Recorded(k)[lo:hi]
		ff.recs[k] = rec
		bit, words := uint64(1)<<(k%64), k/64*m
		rw := ff.rec[words : words+m]
		if w.Label(k) == metrics.LabelAbnormal {
			for i, r := range rec {
				if r {
					rw[i] |= bit
				}
			}
			continue
		}
		kw := ff.keep[words : words+m]
		for i, r := range rec {
			if r {
				rw[i] |= bit
				kw[i] |= bit
			}
		}
	}
	// A lane's baseline is its normal rows, or every recorded row when
	// it has no normal one.
	for i := range m {
		var n, normal int
		for j := i; j < len(ff.rec); j += m {
			n += bits.OnesCount64(ff.rec[j])
			normal += bits.OnesCount64(ff.keep[j])
		}
		if n == 0 {
			return lo + i, errNoTrainingRows
		}
		if normal == 0 {
			for j := i; j < len(ff.rec); j += m {
				ff.keep[j] = ff.rec[j]
			}
		}
	}
	for a := metrics.CPUUser; a <= metrics.PageFaults; a++ {
		for k := 0; k < ticks; k++ {
			ff.lines[k] = w.Line(k, a)[lo:hi]
		}
		for c := 0; c < m; c += fleetChunk {
			ff.fitChunk(f, a.Index(), lo, c, min(c+fleetChunk, m), ticks, m)
		}
	}
	for j := range f.dims {
		row := j*f.stride + lo
		copy(f.scale0[row:row+m], f.scale[row:row+m])
		clear(f.trend[row : row+m])
	}
	// f.n holds the recorded rows the last attribute's warm-up took.
	for i := lo; i < hi; i++ {
		f.trained[i], f.valid[i] = true, false
	}
	return 0, nil
}

// grow sizes ff's working memory for ticks held ticks over m lanes.
func (ff *EWMAFleetFit) grow(ticks, m int) {
	if cap(ff.lines) < ticks {
		ff.lines = make([][]float64, ticks)
		ff.recs = make([][]bool, ticks)
	}
	ff.lines, ff.recs = ff.lines[:ticks], ff.recs[:ticks]
	words := (ticks + 63) / 64 * m
	if cap(ff.keep) < words {
		ff.rec, ff.keep = make([]uint64, words), make([]uint64, words)
	}
	ff.rec, ff.keep = ff.rec[:words], ff.keep[:words]
	if cap(ff.cols) < FleetBlock*ticks {
		ff.cols = make([]float64, FleetBlock*ticks)
	}
}

// fitChunk warms attribute j of lanes lo+c..lo+ce-1 of f over every
// held tick, then fits their baselines FleetBlock lanes at a time.
func (ff *EWMAFleetFit) fitChunk(f *EWMAFleet, j, lo, c, ce, ticks, m int) {
	row := j*f.stride + lo
	level, trend, n := f.level[row+c:row+ce], f.trend[row+c:row+ce], f.n[lo+c:lo+ce]
	clear(n)
	for k := 0; k < ticks; k++ {
		holtStep(level, trend, ff.lines[k][c:ce], ff.recs[k][c:ce], n, f.opts.Alpha, f.opts.Beta)
	}
	var cur [FleetBlock]int64
	for b := c; b < ce; b += FleetBlock {
		lanes := min(FleetBlock, ce-b)
		transposeBlock(ff.cols, ticks, ff.lines, ff.keep, m, b, lanes, &cur)
		for v := range lanes {
			f.center[row+b+v], f.scale[row+b+v] = ff.fit.FitColumn(ff.cols[v*ticks : v*ticks+int(cur[v])])
		}
	}
}
