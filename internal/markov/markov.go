// Package markov implements the attribute value predictors of PREPARE:
// the simple (first-order) Markov chain and the paper's 2-dependent
// Markov chain, both over discretized attribute values.
//
// The simple chain assumes the next value depends only on the current
// value. The 2-dependent chain (Figure 2 of the paper) combines every
// two consecutive single states into one combined state, so transitions
// depend on both the current and the prior value — this converts
// non-Markovian attributes (e.g., sinusoidally fluctuating metrics whose
// next value depends on whether they are on an increasing or a
// decreasing slope) into Markovian ones and improves multi-step
// prediction accuracy.
//
// Both predictors support batch fitting, incremental online updates (the
// paper periodically updates the value prediction model with new
// measurements), and k-step-ahead distribution prediction.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// laplaceAlpha is the additive smoothing constant for transition counts.
// It is deliberately small: with heavier smoothing, multi-step prediction
// leaks probability mass toward absorbing states (e.g., the "CPU pegged"
// bin that anomalies park in), which turns normal states into false
// alarms after a few propagation steps.
const laplaceAlpha = 0.05

// Predictor forecasts the distribution of a discretized attribute value
// several steps ahead.
type Predictor interface {
	// Observe feeds the next observed bin, updating both the model's
	// transition statistics and its notion of the current state.
	Observe(bin int) error
	// Predict returns the probability distribution over bins after the
	// given number of steps from the current state. With no observations
	// yet it returns the uniform distribution.
	Predict(steps int) []float64
	// PredictSeries returns the distributions at every horizon
	// 1..maxSteps in a single propagation pass (result[k] is the
	// distribution k+1 steps ahead).
	PredictSeries(maxSteps int) [][]float64
	// PredictSeriesInto is PredictSeries writing into caller-owned
	// storage: out[k] (len NumStates each) receives the distribution
	// k+1 steps ahead. It allocates nothing, which makes it the
	// building block of the fleet batch path (PredictSeriesBatch);
	// results are bit-identical to PredictSeries.
	PredictSeriesInto(out [][]float64)
	// NumStates returns the number of discretized states.
	NumStates() int
}

// ErrBadState is returned when an observation is outside [0, states).
var ErrBadState = errors.New("markov: observation out of range")

// ErrCountOverflow is returned by an Observe that would take a count
// past maxCount. The chain is left as it was.
var ErrCountOverflow = errors.New("markov: transition count overflow")

// maxCount bounds every transition count and every running total a
// chain keeps, so counts fit a uint32 and any sum of them is exact in a
// float64.
const maxCount = math.MaxUint32

// SimpleChain is a first-order Markov chain over discretized values.
//
// Chains keep internal scratch buffers that are reused across Predict
// and PredictSeries calls, so a chain must not be used from multiple
// goroutines concurrently (Observe already made that true). Returned
// distributions are always freshly allocated and safe to retain.
type SimpleChain struct {
	states int
	counts []uint32 // counts[i*states+j]: transitions i -> j
	cur    int
	seen   bool

	// Scratch reused across predictions; rows caches the smoothed
	// transition matrix and is invalidated whenever counts change.
	rows         [][]float64
	rowsValid    bool
	distA, distB []float64
}

var _ Predictor = (*SimpleChain)(nil)

// NewSimpleChain builds an untrained chain with the given number of
// discretized states.
func NewSimpleChain(states int) (*SimpleChain, error) {
	if states < 1 {
		return nil, fmt.Errorf("markov: states %d must be >= 1", states)
	}
	return &SimpleChain{states: states, counts: make([]uint32, states*states)}, nil
}

// NumStates implements Predictor.
func (c *SimpleChain) NumStates() int { return c.states }

// Observe implements Predictor.
func (c *SimpleChain) Observe(bin int) error {
	if bin < 0 || bin >= c.states {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadState, bin, c.states)
	}
	if c.seen {
		k := c.cur*c.states + bin
		if c.counts[k] == maxCount {
			return fmt.Errorf("%w: transition %d -> %d", ErrCountOverflow, c.cur, bin)
		}
		c.counts[k]++
		c.rowsValid = false
	}
	c.cur = bin
	c.seen = true
	return nil
}

// Fit feeds an entire observation sequence.
func (c *SimpleChain) Fit(seq []int) error {
	start := fitHook.Start()
	defer fitHook.Done(start)
	for i, b := range seq {
		if err := c.Observe(b); err != nil {
			return fmt.Errorf("markov: fit index %d: %w", i, err)
		}
	}
	return nil
}

// rowInto writes the smoothed transition distribution out of state i
// into dst.
func (c *SimpleChain) rowInto(i int, dst []float64) {
	total := 0.0
	for j, n := range c.counts[i*c.states : (i+1)*c.states] {
		dst[j] = float64(n) + laplaceAlpha
		total += dst[j]
	}
	for j := range dst {
		dst[j] /= total
	}
}

// ensureScratch (re)builds the cached smoothed transition matrix and the
// ping-pong distribution buffers.
func (c *SimpleChain) ensureScratch() {
	if c.rows == nil {
		storage := make([]float64, c.states*c.states)
		c.rows = make([][]float64, c.states)
		for i := range c.rows {
			c.rows[i] = storage[i*c.states : (i+1)*c.states : (i+1)*c.states]
		}
		c.distA = make([]float64, c.states)
		c.distB = make([]float64, c.states)
	}
	if !c.rowsValid {
		for i := range c.rows {
			c.rowInto(i, c.rows[i])
		}
		c.rowsValid = true
	}
}

// Predict implements Predictor.
func (c *SimpleChain) Predict(steps int) []float64 {
	if steps < 1 {
		dist := make([]float64, c.states)
		if !c.seen {
			uniform(dist)
		} else {
			dist[c.cur] = 1
		}
		return dist
	}
	series := c.PredictSeries(steps)
	return series[steps-1]
}

// PredictSeries implements Predictor. The returned distributions are
// freshly allocated (one backing array for the whole series); all
// intermediate propagation state lives in scratch buffers reused across
// calls.
func (c *SimpleChain) PredictSeries(maxSteps int) [][]float64 {
	start := predictSeriesHook.Start()
	defer predictSeriesHook.Done(start)
	if maxSteps < 1 {
		maxSteps = 1
	}
	out := seriesSlices(maxSteps, c.states)
	if !c.seen {
		for s := range out {
			uniform(out[s])
		}
		return out
	}
	c.ensureScratch()
	dist, next := c.distA, c.distB
	clear(dist)
	dist[c.cur] = 1
	for s := 0; s < maxSteps; s++ {
		clear(next)
		for i, p := range dist {
			if p == 0 {
				continue
			}
			for j, q := range c.rows[i] {
				next[j] += p * q
			}
		}
		dist, next = next, dist
		copy(out[s], dist)
	}
	return out
}

// seriesSlices carves maxSteps independent distributions out of a single
// backing allocation.
func seriesSlices(maxSteps, states int) [][]float64 {
	storage := make([]float64, maxSteps*states)
	out := make([][]float64, maxSteps)
	for s := range out {
		out[s] = storage[s*states : (s+1)*states : (s+1)*states]
	}
	return out
}

// TwoDepChain is the paper's 2-dependent Markov chain: the combined state
// is the pair (previous bin, current bin), so transition probabilities
// condition on both.
//
// Like SimpleChain, a TwoDepChain reuses internal scratch buffers across
// predictions and must stay confined to one goroutine; returned
// distributions are freshly allocated.
type TwoDepChain struct {
	states int
	// Whole-number transition counts and their running totals, carved
	// from one block and laid out column-major, by the current bin
	// first. With S states and r = cur*S+prev the row index of
	// combined state (prev, cur):
	//
	//	counts[r*S+next]    transitions (prev, cur) -> next
	//	rowTot[r]           sum over next of counts[r*S+next]
	//	colAgg[cur*S+next]  sum over prev of counts[(cur*S+prev)*S+next]
	//	colTot[cur]         sum over prev and next
	//
	// Observe bumps one cell of each, so no total ever exceeds
	// colTot[cur], which Observe keeps at or below maxCount.
	counts, rowTot, colAgg, colTot []uint32
	prev, cur                      int
	nSeen                          int // 0, 1 or 2+ observations so far

	// Smoothed-row cache, allocated on first prediction, in the counts'
	// order: rows[r*S:][:S] is the next-bin distribution of row r
	// (row(prev, cur)), so the rows of one column are one contiguous
	// run.
	rows         []float64
	distA, distB []float64 // states*states propagation scratch

	// An observation of combined state (prev, cur) changes that row's
	// counts and column cur's aggregates, so refreshRows (batch.go)
	// recomputes that row and column cur's backoff rows. dirtyRows is a
	// bitmask of row indices r for states <= 8; dirtyAll covers larger
	// chains and the first refresh.
	dirtyRows uint64
	dirtyAll  bool
}

var _ Predictor = (*TwoDepChain)(nil)

// NewTwoDepChain builds an untrained 2-dependent chain.
func NewTwoDepChain(states int) (*TwoDepChain, error) {
	if states < 1 {
		return nil, fmt.Errorf("markov: states %d must be >= 1", states)
	}
	n := states * states
	block := make([]uint32, n*states+2*n+states)
	return &TwoDepChain{
		states: states,
		counts: block[: n*states : n*states],
		rowTot: block[n*states : n*states+n : n*states+n],
		colAgg: block[n*states+n : n*states+2*n : n*states+2*n],
		colTot: block[n*states+2*n:],
	}, nil
}

// NumStates implements Predictor.
func (c *TwoDepChain) NumStates() int { return c.states }

// Observe implements Predictor.
func (c *TwoDepChain) Observe(bin int) error {
	if bin < 0 || bin >= c.states {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadState, bin, c.states)
	}
	switch c.nSeen {
	case 0:
		c.cur = bin
		c.nSeen = 1
	case 1:
		c.prev, c.cur = c.cur, bin
		c.nSeen = 2
	default:
		s := c.states
		if c.colTot[c.cur] == maxCount {
			return fmt.Errorf("%w: combined state (%d,%d)", ErrCountOverflow, c.prev, c.cur)
		}
		r := c.cur*s + c.prev
		c.counts[r*s+bin]++
		c.rowTot[r]++
		c.colAgg[c.cur*s+bin]++
		c.colTot[c.cur]++
		if s <= 8 {
			c.dirtyRows |= 1 << uint(r)
		} else {
			c.dirtyAll = true
		}
		c.prev, c.cur = c.cur, bin
	}
	return nil
}

// Fit feeds an entire observation sequence.
func (c *TwoDepChain) Fit(seq []int) error {
	start := fitHook.Start()
	defer fitHook.Done(start)
	for i, b := range seq {
		if err := c.Observe(b); err != nil {
			return fmt.Errorf("markov: fit index %d: %w", i, err)
		}
	}
	return nil
}

// row returns the cached smoothed row of combined state (prev, cur).
func (c *TwoDepChain) row(prev, cur int) []float64 {
	r := cur*c.states + prev
	return c.rows[r*c.states : (r+1)*c.states]
}

// ensureScratch allocates the row cache and propagation buffers, in one
// block, on first use, with every row still to be computed.
func (c *TwoDepChain) ensureScratch() {
	if c.rows != nil {
		return
	}
	n := c.states * c.states
	block := make([]float64, n*c.states+2*n)
	c.rows = block[: n*c.states : n*c.states]
	c.distA = block[n*c.states : n*c.states+n : n*c.states+n]
	c.distB = block[n*c.states+n:]
	c.dirtyAll = true
}

// Predict implements Predictor. The distribution over combined states is
// propagated step by step, then marginalized over the latest bin.
func (c *TwoDepChain) Predict(steps int) []float64 {
	if steps < 1 {
		out := make([]float64, c.states)
		if c.nSeen == 0 {
			uniform(out)
		} else {
			out[c.cur] = 1
		}
		return out
	}
	series := c.PredictSeries(steps)
	return series[steps-1]
}

// PredictSeries implements Predictor. The returned marginals are freshly
// allocated (one backing array for the whole series); the combined-state
// propagation buffers and the smoothed-row cache are reused across calls.
func (c *TwoDepChain) PredictSeries(maxSteps int) [][]float64 {
	start := predictSeriesHook.Start()
	defer predictSeriesHook.Done(start)
	if maxSteps < 1 {
		maxSteps = 1
	}
	out := seriesSlices(maxSteps, c.states)
	if c.nSeen <= 1 {
		for s := range out {
			uniform(out[s])
		}
		return out
	}
	c.refreshRows()
	dist, next := c.distA, c.distB
	clear(dist)
	dist[c.prev*c.states+c.cur] = 1
	for s := 0; s < maxSteps; s++ {
		clear(next)
		for idx, p := range dist {
			if p == 0 {
				continue
			}
			cur := idx % c.states
			base := cur * c.states
			for j, q := range c.row(idx/c.states, cur) {
				next[base+j] += p * q
			}
		}
		dist, next = next, dist
		marg := out[s]
		for idx, p := range dist {
			marg[idx%c.states] += p
		}
	}
	return out
}

func uniform(dist []float64) {
	for i := range dist {
		dist[i] = 1 / float64(len(dist))
	}
}

// ArgMax returns the index of the largest probability (ties break low).
func ArgMax(dist []float64) int {
	best, bestIdx := -1.0, 0
	for i, p := range dist {
		if p > best {
			best = p
			bestIdx = i
		}
	}
	return bestIdx
}
