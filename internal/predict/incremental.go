package predict

import (
	"fmt"
	"time"

	"prepare/internal/bayes"
	"prepare/internal/metrics"
)

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

// incrementalState is the sufficient-statistics side of a trained
// predictor. The Markov chains are inherently incremental (every
// Observe already updates their transition counts), so the state here
// covers only what a refit from full history would recompute: the TAN
// count table, the frozen relabeling baseline, and the short ring of
// recent rows the backward extension can still rewrite.
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

// IncrementalUpdates returns how many rows Update has folded into the
// sufficient statistics since the last fit.
func (p *Predictor) IncrementalUpdates() uint64 {
	if !p.trained {
		return 0
	}
	return p.inc.updates
}

// TrainIncremental fits the predictor for streaming training: it fits
// a robust baseline on the window's normal rows, applies the streaming
// relabel against it (deviation gate and backward extension over
// lookbackSamples), and runs the one fit over the relabeled window,
// which keeps the baseline frozen for Update. The model is bit-identical
// to RelabelForTraining followed by Train on the same window: the
// minimum-support fold RelabelForTraining applies to the labels, the fit
// applies as a view of the counts, so abnormal rows that lack support
// now still count once enough arrive. rawLabels is left as it was.
// After it returns, feed each new sample to Update (O(1) amortized) and
// call Retrain to rebuild the classifier from the accumulated counts in
// O(attrs²·bins²), independent of history length.
func (p *Predictor) TrainIncremental(rows [][]float64, rawLabels []metrics.Label, lookbackSamples int) error {
	return p.relabelAndFit(rows, append([]metrics.Label(nil), rawLabels...), lookbackSamples)
}

// relabelAndFit is TrainIncremental on labels it relabels in place:
// when it returns they are what RelabelForTraining would have made of
// them, minimum-support fold included.
func (p *Predictor) relabelAndFit(rows [][]float64, labels []metrics.Label, lookback int) error {
	lookback = max(lookback, 0)
	base := fitBaseline(rows, labels)
	if base != nil {
		deviating := make([]bool, len(rows))
		for i, row := range rows {
			deviating[i] = base.deviating(row)
		}
		gateAndExtend(labels, deviating, lookback)
	}
	if err := p.fit(rows, labels, base, lookback); err != nil {
		return err
	}
	if base != nil {
		applyMinSupport(labels)
	}
	return nil
}

// fit is the one TAN fit behind Train and TrainIncremental. It fits the
// value model on rows, bins every row once, counts the rows labeled
// normal or abnormal into a fresh count table, seeds the look-back ring
// with the window's last lookback rows, and builds the classifier from
// the counts (see incrementalState.refit). base is the frozen relabel
// baseline the labels were gated against, nil when they are taken as
// given. A failed fit leaves the predictor as it was.
func (p *Predictor) fit(rows [][]float64, labels []metrics.Label, base *baseline, lookback int) error {
	if len(rows) == 0 {
		return ErrNoData
	}
	if p.ins.TrainLatency != nil {
		defer p.ins.TrainLatency.ObserveSince(time.Now())
	}
	if len(rows) != len(labels) {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, len(rows), len(labels))
	}
	vm := p.vm
	if err := vm.fit(rows); err != nil {
		return err
	}
	binsPerAttr := make([]int, len(vm.names))
	for j := range binsPerAttr {
		binsPerAttr[j] = vm.cfg.Bins
	}
	ct, err := bayes.NewCountTable(binsPerAttr)
	if err != nil {
		return err
	}
	inc := &incrementalState{
		ct:         ct,
		base:       base,
		lookback:   lookback,
		ring:       make([]ringEntry, 0, lookback),
		prev:       labels[len(labels)-1],
		binScratch: make([]int, len(vm.names)),
	}
	binned := inc.binScratch
	for i, row := range rows {
		for j, v := range row {
			binned[j] = vm.disc[j].Bin(v)
		}
		counted := labels[i] == metrics.LabelNormal || labels[i] == metrics.LabelAbnormal
		if counted {
			if err := ct.Add(binned, labels[i] == metrics.LabelAbnormal); err != nil {
				return err
			}
		}
		if i >= len(rows)-lookback {
			inc.push(binned, labels[i], base != nil && base.deviating(row), counted)
		}
	}
	if ct.Total() == 0 {
		return fmt.Errorf("%w: no labeled rows", ErrNoData)
	}
	model := new(bayes.Model)
	if err := inc.refit(model, vm.cfg.Naive); err != nil {
		return fmt.Errorf("predict: train classifier: %w", err)
	}
	p.vm, p.model, p.inc, p.trained = vm, model, inc, true
	return nil
}

// refit fits m to the accumulated counts. When the labels were gated
// against a baseline, an abnormal class below minAbnormalSupport is gate
// leakage: the fit sees it folded into the normal class (the view
// applyMinSupport takes of a label slice), while the counts themselves
// keep accumulating either way.
func (s *incrementalState) refit(m *bayes.Model, naive bool) error {
	view := s.ct
	if ab := view.ClassCount(true); s.base != nil && ab > 0 && ab < minAbnormalSupport {
		view = view.FoldAbnormal()
	}
	return m.RefitFromCounts(view, bayes.Options{Naive: naive})
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
// O(T) into O(1) amortized. The result is bit-identical to a fit over
// the same rows relabeled against the same frozen baseline. The model is
// refitted in place, which allocates nothing unless the minimum-support
// fold is taken; if the refit fails the old fit keeps scoring.
func (p *Predictor) Retrain() error {
	if !p.trained {
		return ErrNotTrained
	}
	if p.ins.TrainLatency != nil {
		defer p.ins.TrainLatency.ObserveSince(time.Now())
	}
	if err := p.inc.refit(p.model, p.vm.cfg.Naive); err != nil {
		return fmt.Errorf("predict: retrain classifier: %w", err)
	}
	return nil
}
