package predict

import (
	"errors"
	"fmt"
	"time"

	"prepare/internal/bayes"
	"prepare/internal/metrics"
)

// ErrNotIncremental is returned by Update/Retrain on a predictor that
// was not trained with TrainIncremental (or restored from a snapshot
// without incremental state).
var ErrNotIncremental = errors.New("predict: predictor has no incremental training state")

// ringEntry is one recent row retained for the streaming backward
// extension: when a violation onset arrives, the contiguous deviating
// rows immediately before it are flipped to abnormal, exactly as the
// batch relabel pass does with full history in hand.
type ringEntry struct {
	bins      []int
	applied   metrics.Label // label as currently counted (post gate/extension)
	deviating bool
	counted   bool // instance present in the count table
}

// incrementalState is the sufficient-statistics side of an incrementally
// trained predictor. The Markov chains are inherently incremental (every
// Observe already updates their transition counts), so the state here
// covers only what batch retraining used to recompute from full history:
// the TAN count table, the frozen relabeling baseline, and the short
// ring of recent rows the backward extension can still rewrite.
type incrementalState struct {
	ct       *bayes.CountTable
	base     *baseline // nil when initial training lacked baseline rows
	lookback int

	ring []ringEntry // circular, capacity lookback
	head int         // index of the oldest entry
	n    int         // live entries

	prev    metrics.Label // applied label of the most recent row
	updates uint64

	binScratch []int // reusable per-Update discretization buffer
}

// at returns the k-th newest live entry (k=0 is the most recent).
func (s *incrementalState) at(k int) *ringEntry {
	idx := s.head + s.n - 1 - k
	if idx >= len(s.ring) {
		idx -= len(s.ring)
	}
	return &s.ring[idx]
}

// push appends a new entry, evicting the oldest when full. The evicted
// entry's bins slice is recycled, so steady-state pushes allocate
// nothing.
func (s *incrementalState) push(bins []int, applied metrics.Label, deviating, counted bool) {
	if cap(s.ring) == 0 {
		return
	}
	var buf []int
	if s.n == len(s.ring) && len(s.ring) == cap(s.ring) {
		buf = s.ring[s.head].bins
		s.ring[s.head] = ringEntry{}
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.n--
	} else {
		buf = make([]int, len(bins))
	}
	copy(buf, bins)
	idx := s.head + s.n
	if idx >= cap(s.ring) {
		idx -= cap(s.ring)
	}
	if idx == len(s.ring) {
		s.ring = s.ring[:idx+1]
	}
	s.ring[idx] = ringEntry{bins: buf, applied: applied, deviating: deviating, counted: counted}
	s.n++
}

// Incremental reports whether the predictor carries incremental training
// state (Update/Retrain available).
func (p *Predictor) Incremental() bool { return p.inc != nil }

// IncrementalUpdates returns how many rows Update has folded into the
// sufficient statistics since (re)training started.
func (p *Predictor) IncrementalUpdates() uint64 {
	if p.inc == nil {
		return 0
	}
	return p.inc.updates
}

// TrainIncremental performs the initial batch fit exactly like Train —
// same discretizers, chains, relabeling, and classifier, bit-identical
// on the same data — and additionally retains the sufficient statistics
// needed to keep training online: the TAN count table, the relabeling
// baseline (frozen from this window, as are the discretizers), and a
// lookback ring of recent rows for streaming backward extension. After
// it returns, feed each new sample to Update (O(1) amortized) and call
// Retrain to rebuild the classifier from the accumulated counts in
// O(attrs²·bins²), independent of history length.
func (p *Predictor) TrainIncremental(rows [][]float64, rawLabels []metrics.Label, lookbackSamples int) error {
	if len(rows) == 0 {
		return ErrNoData
	}
	if len(rows) != len(rawLabels) {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, len(rows), len(rawLabels))
	}
	if lookbackSamples < 0 {
		lookbackSamples = 0
	}

	// Streaming labels: gate + backward extension, but NOT the minimum-
	// support fold — that is a global property of the current window and
	// is re-decided at every (re)train from the class counts, so early
	// abnormal rows that lacked support at first can still contribute
	// once enough arrive.
	base := fitBaseline(rows, rawLabels)
	streamLabels := append([]metrics.Label(nil), rawLabels...)
	deviating := make([]bool, len(rows))
	if base != nil {
		for i, row := range rows {
			deviating[i] = base.deviating(row)
		}
		gateAndExtend(streamLabels, deviating, lookbackSamples)
	}
	modelLabels := append([]metrics.Label(nil), streamLabels...)
	if base != nil {
		applyMinSupport(modelLabels)
	}

	// The batch fit proper: discretizers, chains, and classifier are
	// exactly what Train produces for this window.
	if err := p.Train(rows, modelLabels); err != nil {
		return err
	}

	// Accumulate the count table from the stream labels (pre-fold) and
	// seed the extension ring with the window's tail.
	binsPerAttr := make([]int, len(p.vm.names))
	for j := range binsPerAttr {
		binsPerAttr[j] = p.vm.cfg.Bins
	}
	ct, err := bayes.NewCountTable(binsPerAttr)
	if err != nil {
		return err
	}
	inc := &incrementalState{
		ct:         ct,
		base:       base,
		lookback:   lookbackSamples,
		ring:       make([]ringEntry, 0, lookbackSamples),
		prev:       metrics.LabelUnknown,
		binScratch: make([]int, len(p.vm.names)),
	}
	binned := make([]int, len(p.vm.names))
	for i, row := range rows {
		for j, v := range row {
			binned[j] = p.vm.disc[j].Bin(v)
		}
		counted := false
		switch streamLabels[i] {
		case metrics.LabelNormal, metrics.LabelAbnormal:
			if err := ct.Add(binned, streamLabels[i] == metrics.LabelAbnormal); err != nil {
				return err
			}
			counted = true
		}
		if i >= len(rows)-lookbackSamples {
			inc.push(binned, streamLabels[i], deviating[i], counted)
		}
	}
	if len(rows) > 0 {
		inc.prev = streamLabels[len(rows)-1]
	}
	p.inc = inc
	return nil
}

// Update folds one new labeled sample into the predictor's sufficient
// statistics in O(attrs²) — constant in history length. It subsumes
// Observe (the value-prediction chains advance on every call) and
// applies the streaming form of RelabelForTraining against the frozen
// baseline: non-deviating abnormal labels are gated to normal, and a
// violation onset flips the contiguous deviating rows in the lookback
// ring to abnormal, moving their counts across classes. Rows labeled
// LabelUnknown advance the chains but join the classifier counts only
// if a later onset extension claims them — callers use that to keep
// value prediction live on samples unfit for training.
func (p *Predictor) Update(row []float64, label metrics.Label) error {
	if !p.trained {
		return ErrNotTrained
	}
	if p.inc == nil {
		return ErrNotIncremental
	}
	if len(row) != len(p.vm.names) {
		return fmt.Errorf("%w: row has %d columns, want %d", ErrShape, len(row), len(p.vm.names))
	}
	s := p.inc
	binned := s.binScratch
	for j, v := range row {
		binned[j] = p.vm.disc[j].Bin(v)
		if err := p.vm.chains[j].Observe(binned[j]); err != nil {
			return fmt.Errorf("predict: observe: %w", err)
		}
	}
	dev := s.base != nil && s.base.deviating(row)
	applied := label
	if applied == metrics.LabelAbnormal && s.base != nil && !dev {
		applied = metrics.LabelNormal // deviation gate
	}
	counted := false
	if applied == metrics.LabelNormal || applied == metrics.LabelAbnormal {
		if err := s.ct.Add(binned, applied == metrics.LabelAbnormal); err != nil {
			return err
		}
		counted = true
	}
	// Violation onset: extend backward through the contiguous deviating
	// drift, exactly as the batch pass does over full history.
	if applied == metrics.LabelAbnormal && s.prev == metrics.LabelNormal {
		for k := 0; k < s.n; k++ {
			e := s.at(k)
			if !e.deviating {
				break
			}
			if e.applied != metrics.LabelAbnormal {
				if e.counted {
					if err := s.ct.Relabel(e.bins, true); err != nil {
						return err
					}
				} else {
					if err := s.ct.Add(e.bins, true); err != nil {
						return err
					}
					e.counted = true
				}
				e.applied = metrics.LabelAbnormal
			}
		}
	}
	s.push(binned, applied, dev, counted)
	s.prev = applied
	s.updates++
	p.ins.IncrementalUpdates.Inc()
	return nil
}

// Retrain refits the TAN classifier from the accumulated count table
// in O(attrs²·bins²) — independent of how much history produced the
// counts, which is what turns the control loop's periodic retrain from
// O(T) into O(1) amortized. The minimum-support rule is applied as a
// view (abnormal counts folded into normal when below threshold), so the
// underlying statistics keep accumulating either way. The result is
// bit-identical to a batch Train over the same rows relabeled against
// the same frozen baseline. The model is refitted in place, which
// allocates nothing unless the fold is taken; if the refit fails the
// old fit keeps scoring.
func (p *Predictor) Retrain() error {
	if !p.trained {
		return ErrNotTrained
	}
	if p.inc == nil {
		return ErrNotIncremental
	}
	if p.ins.TrainLatency != nil {
		defer p.ins.TrainLatency.ObserveSince(time.Now())
	}
	view := p.inc.ct
	if ab := view.ClassCount(true); p.inc.base != nil && ab > 0 && ab < minAbnormalSupport {
		view = view.FoldAbnormal()
	}
	if err := p.model.RefitFromCounts(view, bayes.Options{Naive: p.vm.cfg.Naive}); err != nil {
		return fmt.Errorf("predict: retrain classifier: %w", err)
	}
	return nil
}
