package markov

import "math/bits"

// Batch (fleet) prediction path.
//
// PredictSeries allocates its result series on every call — fine for a
// handful of VMs, but at fleet scale those per-VM allocations dominate
// the sampling tick (N VMs × attrs chains × steps × states float64s of
// garbage per tick). The batch path extends the seriesSlices
// single-backing-array trick across the whole fleet: one arena holds
// every chain's series storage and PredictSeriesInto propagates into it
// without allocating.
//
// The propagation kernel is also restructured for speed while staying
// bit-identical to the scalar loop in PredictSeries:
//
//   - Rows are refreshed eagerly (refreshRows) and only the rows
//     dirtied by Observe since the last refresh are recomputed: an
//     observation of combined state (prev, cur) increments one of its
//     counts, which can change only row (prev, cur) itself and the
//     backoff rows aggregating over column cur. A row is a pure function
//     of the counts, so every other row keeps its exact float64 values.
//   - The states==8 kernel (the production bin count) keeps each output
//     column's eight accumulators in registers and fuses the marginal
//     pass into the propagation sweep; on amd64 with AVX2 the same
//     sweep runs four lanes at a time (step8_amd64.s). Per accumulator
//     the additions happen in the same ascending-index order as the
//     scalar loop, no fused multiply-add is emitted (Go only fuses
//     within a single expression), and skipped zero-probability terms
//     contribute exact +0.0 products either way, so every float64
//     matches the scalar path bit for bit.
//
// ProjectSeriesBatch extends the same pass with a linear projection of
// every predicted marginal and its argmax, which is everything the TAN
// window score needs from a chain: the 8-state kernel runs all of a
// chain's steps, projections and argmaxes in one call.
type BatchArena struct {
	flat   []float64
	steps  [][]float64
	series [][][]float64
	// offs[i] is where chain i's maxSteps marginals start in flat, and
	// offs[len(chains)] is their total length.
	offs     []int
	maxSteps int
	proj     []float64
	argmax   []int32
	// dist is the 8-state kernel's two distribution buffers, shared by
	// every chain of the batch so that they stay in L1 instead of
	// coming in from each chain's own scratch.
	dist [2][64]float64
}

// Series returns chain i's series views from the most recent
// PredictSeriesBatch or ProjectSeriesBatch call through this arena
// (valid until the next call). The views are built on demand: a
// projected window is read through its projections and argmaxes, and
// only a materialized decision reads its marginals.
func (a *BatchArena) Series(i int) [][]float64 {
	off := a.offs[i]
	st := (a.offs[i+1] - off) / a.maxSteps
	view := a.steps[i*a.maxSteps : (i+1)*a.maxSteps]
	for s := range view {
		view[s] = a.flat[off : off+st : off+st]
		off += st
	}
	return view
}

// Projections returns every projection of the most recent
// ProjectSeriesBatch call: chain c's projection at step s, lane u, is
// element (c*maxSteps+s)*lanes+u. Valid until the next call.
func (a *BatchArena) Projections() []float64 { return a.proj }

// Argmaxes returns the most likely bin of every marginal of the most
// recent ProjectSeriesBatch call: chain c's at step s is element
// c*maxSteps+s, chosen as ArgMax chooses. Valid until the next call.
func (a *BatchArena) Argmaxes() []int32 { return a.argmax }

// PredictSeriesBatch propagates every chain maxSteps ahead through one
// shared scratch arena: result[c][k] is chain c's distribution k+1
// steps ahead. All series share a single backing array owned by the
// arena, so the views are valid only until the next call with the same
// arena; steady-state calls allocate nothing. Results are bit-identical
// to calling PredictSeries on each chain.
func PredictSeriesBatch(chains []Predictor, maxSteps int, a *BatchArena) [][][]float64 {
	a.run(chains, maxSteps, nil, 0)
	if cap(a.series) < len(chains) {
		a.series = make([][][]float64, len(chains))
	}
	series := a.series[:len(chains)]
	for i := range series {
		series[i] = a.Series(i)
	}
	return series
}

// ProjectSeriesBatch is PredictSeriesBatch that also projects every
// predicted marginal through its chain's table. tabs[c] holds
// NumStates() rows of lanes values, row v at tabs[c][v*lanes:], and
// chain c's projection at step s is, per lane u,
//
//	Σ_v marg[s][v] · tabs[c][v*lanes+u]
//
// summed over v in ascending order from +0, one rounded multiply and
// one rounded add a term, leaving out every v with marg[s][v] <= 0: bit
// for bit the float64 a scalar loop over v skipping non-positive
// probabilities computes. The arena's Projections hold the results, its
// Argmaxes each marginal's ArgMax and its Series the marginals.
func ProjectSeriesBatch(chains []Predictor, maxSteps int, tabs [][]float64, lanes int, a *BatchArena) {
	a.run(chains, maxSteps, tabs, lanes)
}

// run lays out the arena for the batch and propagates every chain into
// it, projecting through tabs when they are given.
func (a *BatchArena) run(chains []Predictor, maxSteps int, tabs [][]float64, lanes int) {
	if maxSteps < 1 {
		maxSteps = 1
	}
	if cap(a.offs) < len(chains)+1 {
		a.offs = make([]int, len(chains)+1)
	}
	offs := a.offs[:len(chains)+1]
	offs[0] = 0
	for i, ch := range chains {
		offs[i+1] = offs[i] + maxSteps*ch.NumStates()
	}
	a.offs, a.maxSteps = offs, maxSteps
	if total := offs[len(chains)]; cap(a.flat) < total {
		a.flat = make([]float64, total)
	}
	n := len(chains) * maxSteps
	if cap(a.steps) < n {
		a.steps = make([][]float64, n)
	}
	if tabs != nil {
		if cap(a.proj) < n*lanes {
			a.proj = make([]float64, n*lanes)
		}
		if cap(a.argmax) < n {
			a.argmax = make([]int32, n)
		}
		a.proj, a.argmax = a.proj[:n*lanes], a.argmax[:n]
	}
	for ci, ch := range chains {
		var tab, proj []float64
		var argmax []int32
		if tabs != nil {
			tab = tabs[ci]
			proj = a.proj[ci*maxSteps*lanes : (ci+1)*maxSteps*lanes]
			argmax = a.argmax[ci*maxSteps : (ci+1)*maxSteps]
		}
		if c, ok := ch.(*TwoDepChain); ok && c.states == 8 && c.nSeen > 1 && (tabs == nil || lanes == 8) {
			// The kernel prefetches the next chain's rows while it
			// runs this one's window: a fleet's rows do not fit in cache,
			// and without it every window starts on misses.
			var pre *float64
			if ci+1 < len(chains) {
				if nc, ok := chains[ci+1].(*TwoDepChain); ok && nc.rows != nil {
					pre = &nc.rows[0]
				}
			}
			c.projectSeries8(&a.dist, a.flat[offs[ci]:offs[ci+1]], proj, tab, argmax, pre)
			continue
		}
		view := a.Series(ci)
		ch.PredictSeriesInto(view)
		if tabs != nil {
			for s, m := range view {
				projectGo(m, tab, proj[s*lanes:(s+1)*lanes])
				argmax[s] = int32(ArgMax(m))
			}
		}
	}
}

// projectGo writes e[u] = Σ_v marg[v]·tab[v*len(e)+u] for every lane u:
// v ascending from +0, one multiply and one add a term, skipping every
// v with marg[v] <= 0. It is the projection ProjectSeriesBatch
// documents, the reference the vector kernel is tested against and the
// fallback for everything that kernel does not run.
func projectGo(marg, tab, e []float64) {
	lanes := len(e)
	clear(e)
	for v, pv := range marg {
		if pv <= 0 {
			continue
		}
		for u, t := range tab[v*lanes : (v+1)*lanes] {
			e[u] += pv * t
		}
	}
}

// PredictSeriesInto implements Predictor. See PredictSeries for the
// propagation semantics; this variant writes into out and allocates
// nothing.
func (c *SimpleChain) PredictSeriesInto(out [][]float64) {
	start := predictSeriesHook.Start()
	defer predictSeriesHook.Done(start)
	if len(out) == 0 {
		return
	}
	if !c.seen {
		for s := range out {
			uniform(out[s])
		}
		return
	}
	c.ensureScratch()
	if c.states == 8 {
		c.seriesInto8(out)
		return
	}
	dist, next := c.distA, c.distB
	clear(dist)
	dist[c.cur] = 1
	for s := range out {
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
}

// seriesInto8 is the 8-state SimpleChain kernel: register accumulators,
// no per-step clears, bit-identical to the generic loop.
func (c *SimpleChain) seriesInto8(out [][]float64) {
	dist, next := c.distA, c.distB
	clear(dist)
	dist[c.cur] = 1
	for s := range out {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for i := 0; i < 8; i++ {
			d := dist[i]
			if d == 0 {
				continue
			}
			r := (*[8]float64)(c.rows[i])
			a0 += d * r[0]
			a1 += d * r[1]
			a2 += d * r[2]
			a3 += d * r[3]
			a4 += d * r[4]
			a5 += d * r[5]
			a6 += d * r[6]
			a7 += d * r[7]
		}
		nb := (*[8]float64)(next)
		nb[0], nb[1], nb[2], nb[3] = a0, a1, a2, a3
		nb[4], nb[5], nb[6], nb[7] = a4, a5, a6, a7
		ob := (*[8]float64)(out[s])
		ob[0], ob[1], ob[2], ob[3] = a0, a1, a2, a3
		ob[4], ob[5], ob[6], ob[7] = a4, a5, a6, a7
		dist, next = next, dist
	}
}

// refreshRows brings the smoothed rows up to date with the counts,
// recomputing only the rows dirtied by Observe since the last refresh
// and the backoff rows of their columns (see the comment above for why
// that is exact). After it returns any row may be read directly.
func (c *TwoDepChain) refreshRows() {
	c.ensureScratch()
	if c.dirtyAll {
		for r := range c.rowTot {
			c.smoothRow(r)
		}
		for col := 0; col < c.states; col++ {
			c.smoothBackoff(col)
		}
	} else {
		for m := c.dirtyRows; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			c.smoothRow(r)
			c.smoothBackoff(r / c.states)
		}
	}
	c.dirtyRows, c.dirtyAll = 0, false
}

// smoothRow recomputes row r = cur*S+prev from its own counts, as
// their Laplace-smoothed next-bin distribution, if the combined state
// was ever observed. An unobserved row is smoothBackoff's to fill.
//
// Counts and totals are whole numbers no larger than maxCount, so a
// total kept running in integers converts to the float64 that summing
// the row's counts as floats would give, in any order: each division
// sees the operands a re-sum of the row would.
func (c *TwoDepChain) smoothRow(r int) {
	s := c.states
	total := c.rowTot[r]
	if total == 0 {
		return
	}
	dst := c.rows[r*s : (r+1)*s]
	for j, n := range c.counts[r*s : (r+1)*s] {
		dst[j] = (float64(n) + laplaceAlpha) / (float64(total) + laplaceAlpha*float64(s))
	}
}

// smoothBackoff fills the rows of column col whose combined state
// (p, col) was never observed. Each backs off to the smoothed aggregate
// over all prev with the same cur, which keeps sparse pairs from
// collapsing to uniform noise. The backoff row is the same for every
// unobserved p, so it is computed from the running column aggregates
// into the first such row and copied into the rest. A column with every
// prev observed has no backoff row and costs one scan of its totals.
func (c *TwoDepChain) smoothBackoff(col int) {
	s := c.states
	var first []float64
	for p, total := range c.rowTot[col*s : (col+1)*s] {
		if total != 0 {
			continue
		}
		r := col*s + p
		dst := c.rows[r*s : (r+1)*s]
		if first != nil {
			copy(dst, first)
			continue
		}
		aggTotal := c.colTot[col]
		for j, n := range c.colAgg[col*s : (col+1)*s] {
			dst[j] = (float64(n) + laplaceAlpha) / (float64(aggTotal) + laplaceAlpha*float64(s))
		}
		first = dst
	}
}

// PredictSeriesInto implements Predictor. See PredictSeries for the
// propagation semantics; this variant writes into out, allocates
// nothing, and runs the dense batch kernel.
func (c *TwoDepChain) PredictSeriesInto(out [][]float64) {
	start := predictSeriesHook.Start()
	defer predictSeriesHook.Done(start)
	if len(out) == 0 {
		return
	}
	if c.nSeen <= 1 {
		for s := range out {
			uniform(out[s])
		}
		return
	}
	c.refreshRows()
	if c.states == 8 {
		c.seriesInto8(out)
		return
	}
	dist, next := c.distA, c.distB
	clear(dist)
	dist[c.prev*c.states+c.cur] = 1
	for s := range out {
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
		clear(marg)
		for idx, p := range dist {
			marg[idx%c.states] += p
		}
	}
}

// seriesInto8 is the 8-state TwoDepChain propagation into the caller's
// out: one kernel step per horizon from the dense distribution,
// ping-ponging it between the two scratch buffers.
func (c *TwoDepChain) seriesInto8(out [][]float64) {
	rows := (*[512]float64)(c.rows)
	dist, next := (*[64]float64)(c.distA), (*[64]float64)(c.distB)
	*dist = [64]float64{}
	dist[c.prev*8+c.cur] = 1
	for s := range out {
		series8(rows, dist, next, -1, out[s][:8], nil, nil, nil, &rows[0])
		dist, next = next, dist
	}
}

// projectSeries8 runs the whole 8-state window in one kernel call from
// the chain's own state, with dist as the distribution buffers:
// len(marg)/8 steps into the contiguous marg, and with a table their
// projections and argmaxes (see ProjectSeriesBatch), prefetching from
// pre (nil: the chain's own rows). The chain must have seen at least
// two observations.
func (c *TwoDepChain) projectSeries8(dist *[2][64]float64, marg, proj, tab []float64, argmax []int32, pre *float64) {
	start := predictSeriesHook.Start()
	defer predictSeriesHook.Done(start)
	c.refreshRows()
	if pre == nil {
		pre = &c.rows[0]
	}
	series8((*[512]float64)(c.rows), &dist[0], &dist[1], c.prev*8+c.cur, marg, proj, tab, argmax, pre)
}

// kernelKind names a series kernel series8 can run.
type kernelKind uint8

const (
	kernelGo kernelKind = iota
	kernelAVX2
	kernelAVX512
)

func (k kernelKind) String() string { return [...]string{"go", "avx2", "avx512"}[k] }

// series8Kernel is the kernel series8 runs: decided once from CPUID,
// the 512-bit kernel where the CPU and OS support AVX-512F, else the
// AVX2 kernel, else twoDepSeries8Go, whose output both vector kernels
// reproduce bit for bit (TestTwoDepSeries8MatchesGo,
// TestSeries8StartStateMatchesGo). Tests switch it to run every kernel
// the machine has.
var series8Kernel = bestKernel()

func bestKernel() kernelKind {
	switch {
	case kernelAvailable(kernelAVX512):
		return kernelAVX512
	case kernelAvailable(kernelAVX2):
		return kernelAVX2
	}
	return kernelGo
}

// series8 propagates len(marg)/8 steps, ping-ponging dist with next,
// and writes step s's marginal to marg[s*8:]. With start >= 0 it starts
// from the one-hot distribution at start and dist is scratch; with
// start < 0 it starts from dist. With a table (proj non-nil) it also
// writes the marginal's projection through tab to proj[s*8:] and its
// ArgMax to argmax[s]. A vector kernel runs when CPUID chose one,
// prefetching from pre (see twoDepSeries8AVX512), the Go kernel
// otherwise; they agree bit for bit.
func series8(rows *[512]float64, dist, next *[64]float64, start int, marg, proj, tab []float64, argmax []int32, pre *float64) {
	steps := len(marg) / 8
	k := series8Kernel
	if k == kernelGo {
		if start >= 0 {
			*dist = [64]float64{}
			dist[start] = 1
		}
		twoDepSeries8Go(rows, dist, next, marg[:steps*8], proj, tab, argmax)
		return
	}
	var projP, tabP *float64
	var argP *int32
	if proj != nil {
		_, _, _ = proj[steps*8-1], tab[63], argmax[steps-1]
		projP, tabP, argP = &proj[0], &tab[0], &argmax[0]
	}
	if k == kernelAVX512 {
		twoDepSeries8AVX512(&rows[0], &dist[0], &next[0], start, steps, &marg[0], projP, tabP, argP, pre)
	} else {
		twoDepSeries8AVX2(&rows[0], &dist[0], &next[0], start, steps, &marg[0], projP, tabP, argP, pre)
	}
}

// twoDepSeries8Go is the portable series kernel and the reference the
// vector kernel is tested against: twoDepStep8Go a step, then, with a
// table, projectGo and ArgMax on the step's marginal.
func twoDepSeries8Go(rows *[512]float64, dist, next *[64]float64, marg, proj, tab []float64, argmax []int32) {
	for s := 0; s < len(marg)/8; s++ {
		m := marg[s*8 : s*8+8]
		twoDepStep8Go(rows, dist, next, (*[8]float64)(m))
		if proj != nil {
			projectGo(m, tab[:64], proj[s*8:s*8+8])
			argmax[s] = int32(ArgMax(m))
		}
		dist, next = next, dist
	}
}

// twoDepStep8Go is the portable step kernel and the reference the
// vector kernel is tested against. The combined-state distribution is
// swept one output column at a time (new-prev = old cur), with the
// eight next-bin accumulators held in registers; the marginal over the
// new current bin is fused into the same sweep. The rows are
// column-major, rows[(col*8+p)*8+j], so one column's sweep reads one
// contiguous 512-byte run. For a fixed target cell next[c*8+j] the
// scalar loop in PredictSeries adds contributions in ascending
// source-prev order, exactly as the p-loop below does, and
// the fused marginal accumulates column values in the same ascending
// order as the scalar marginalization — so every intermediate and final
// float64 is bit-identical to the scalar path.
func twoDepStep8Go(rows *[512]float64, dist, next *[64]float64, marg *[8]float64) {
	var m0, m1, m2, m3, m4, m5, m6, m7 float64
	for col := 0; col < 8; col++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for p := 0; p < 8; p++ {
			d := dist[p*8+col]
			if d == 0 {
				continue
			}
			r := (*[8]float64)(rows[(col*8+p)*8:])
			a0 += d * r[0]
			a1 += d * r[1]
			a2 += d * r[2]
			a3 += d * r[3]
			a4 += d * r[4]
			a5 += d * r[5]
			a6 += d * r[6]
			a7 += d * r[7]
		}
		nb := (*[8]float64)(next[col*8:])
		nb[0], nb[1], nb[2], nb[3] = a0, a1, a2, a3
		nb[4], nb[5], nb[6], nb[7] = a4, a5, a6, a7
		m0 += a0
		m1 += a1
		m2 += a2
		m3 += a3
		m4 += a4
		m5 += a5
		m6 += a6
		m7 += a7
	}
	marg[0], marg[1], marg[2], marg[3] = m0, m1, m2, m3
	marg[4], marg[5], marg[6], marg[7] = m4, m5, m6, m7
}
