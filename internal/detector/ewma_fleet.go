package detector

import (
	"errors"
	"math/bits"

	"prepare/internal/metrics"
)

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

// FleetBlock is the number of lanes the blocked transpose takes at a
// time: one cache line of each tick's line. Ranges of lanes that start
// on a multiple of it share no cache line of the window.
const FleetBlock = 8

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
	// level, trend and seen are the warm-up's lanes and counts.
	level, trend []float64
	seen         []int64
	cols         []float64 // a block's baseline columns, Ticks apart
	fit          metrics.RobustFitter
}

// Fit refits dets[lo:hi], the detectors of lanes lo..hi-1 of w, from
// w's held ticks, each exactly as Train fits it from the lane's recorded
// rows and their labels (DESIGN.md, "The refit in the store's layout"):
//   - the warm-up runs holtStep with lanes = VMs over each attribute's
//     lines, so each lane replays its recorded rows in order;
//   - a blocked transpose writes each lane's baseline rows, those not
//     labelled abnormal or, when that leaves none, every recorded one,
//     into one column per attribute for RobustFitter.FitColumn.
//
// Every detector in the range must have one attribute per store
// attribute and the range's smoothing. A lane without a recorded row
// fails the fit with Train's error before any detector changes; Fit
// returns that lane.
func (f *EWMAFleetFit) Fit(w FleetWindow, dets []*EWMA, lo, hi int) (lane int, err error) {
	m, ticks := hi-lo, w.Ticks()
	if m <= 0 {
		return 0, nil
	}
	alpha, beta := dets[lo].opts.Alpha, dets[lo].opts.Beta
	for i, e := range dets[lo:hi] {
		if len(e.level) != metrics.NumAttributes || e.opts.Alpha != alpha || e.opts.Beta != beta {
			return lo + i, errors.New("detector: a fleet fit needs every detector over every attribute with one smoothing")
		}
	}
	f.grow(ticks, m)
	clear(f.rec)
	clear(f.keep)
	for k := 0; k < ticks; k++ {
		rec := w.Recorded(k)[lo:hi]
		f.recs[k] = rec
		bit, words := uint64(1)<<(k%64), k/64*m
		rw := f.rec[words : words+m]
		if w.Label(k) == metrics.LabelAbnormal {
			for i, r := range rec {
				if r {
					rw[i] |= bit
				}
			}
			continue
		}
		kw := f.keep[words : words+m]
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
		for j := i; j < len(f.rec); j += m {
			n += bits.OnesCount64(f.rec[j])
			normal += bits.OnesCount64(f.keep[j])
		}
		if n == 0 {
			return lo + i, errNoTrainingRows
		}
		if normal == 0 {
			for j := i; j < len(f.rec); j += m {
				f.keep[j] = f.rec[j]
			}
		}
	}
	for a := metrics.CPUUser; a <= metrics.PageFaults; a++ {
		for k := 0; k < ticks; k++ {
			f.lines[k] = w.Line(k, a)[lo:hi]
		}
		for c := 0; c < m; c += fleetChunk {
			f.fitChunk(dets[lo:hi], a.Index(), c, min(c+fleetChunk, m), ticks, m, alpha, beta)
		}
	}
	for i, e := range dets[lo:hi] {
		copy(e.scale0, e.scale)
		clear(e.trend)
		e.n = f.seen[i] // the recorded rows the last attribute's warm-up took
		e.trained = true
		e.lastValid = false
	}
	return 0, nil
}

// grow sizes f's working memory for ticks held ticks over m lanes.
func (f *EWMAFleetFit) grow(ticks, m int) {
	if cap(f.lines) < ticks {
		f.lines = make([][]float64, ticks)
		f.recs = make([][]bool, ticks)
	}
	f.lines, f.recs = f.lines[:ticks], f.recs[:ticks]
	words := (ticks + 63) / 64 * m
	if cap(f.keep) < words {
		f.rec, f.keep = make([]uint64, words), make([]uint64, words)
	}
	f.rec, f.keep = f.rec[:words], f.keep[:words]
	if cap(f.seen) < m {
		f.seen = make([]int64, m)
		f.level, f.trend = make([]float64, m), make([]float64, m)
	}
	if cap(f.cols) < FleetBlock*ticks {
		f.cols = make([]float64, FleetBlock*ticks)
	}
}

// fitChunk warms attribute j of lanes c..ce-1 of the range (dets) over
// every held tick, then fits their baselines FleetBlock lanes at a time.
func (f *EWMAFleetFit) fitChunk(dets []*EWMA, j, c, ce, ticks, m int, alpha, beta float64) {
	level, trend, seen := f.level[c:ce], f.trend[c:ce], f.seen[c:ce]
	clear(seen)
	for k := 0; k < ticks; k++ {
		holtStep(level, trend, f.lines[k][c:ce], f.recs[k][c:ce], seen, alpha, beta)
	}
	for i, l := range level {
		dets[c+i].level[j] = l
	}
	var cur [FleetBlock]int64
	for b := c; b < ce; b += FleetBlock {
		lanes := min(FleetBlock, ce-b)
		transposeBlock(f.cols, ticks, f.lines, f.keep, m, b, lanes, &cur)
		for v := range lanes {
			e := dets[b+v]
			e.center[j], e.scale[j] = f.fit.FitColumn(f.cols[v*ticks : v*ticks+int(cur[v])])
		}
	}
}
