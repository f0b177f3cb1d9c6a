package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"prepare/internal/bayes"
	"prepare/internal/markov"
	"prepare/internal/metrics"
)

// predictorSnapshot is the JSON wire format of a trained predictor.
type predictorSnapshot struct {
	Version      int                           `json:"version"`
	Names        []string                      `json:"names"`
	Config       Config                        `json:"config"`
	Discretizers []metrics.DiscretizerSnapshot `json:"discretizers"`
	Chains       []markov.Snapshot             `json:"chains"`
	Model        bayes.Snapshot                `json:"model"`
	// Incremental carries the sufficient statistics every trained
	// predictor keeps (count table, baseline, look-back ring). It is
	// required: Load refuses a snapshot without it (errNoCounts).
	Incremental *incrementalSnapshot `json:"incremental"`
}

// incrementalSnapshot serializes incrementalState.
type incrementalSnapshot struct {
	Counts   bayes.CountSnapshot `json:"counts"`
	Mean     []float64           `json:"mean,omitempty"` // nil when no baseline was fit
	Std      []float64           `json:"std,omitempty"`
	Lookback int                 `json:"lookback"`
	Ring     []ringEntrySnapshot `json:"ring"` // oldest first
	Prev     metrics.Label       `json:"prev"`
	Updates  uint64              `json:"updates"`
}

type ringEntrySnapshot struct {
	Bins      []int         `json:"bins"`
	Applied   metrics.Label `json:"applied"`
	Deviating bool          `json:"deviating"`
	Counted   bool          `json:"counted"`
}

// snapshotVersion guards the wire format.
const snapshotVersion = 1

// errNoCounts refuses a snapshot that carries no count table: the
// predictor it describes could neither fold samples nor retrain.
var errNoCounts = errors.New("predict: snapshot has no incremental counts")

// Save writes the trained predictor as JSON, so a model trained offline
// can be deployed to score live streams without retraining.
func (p *Predictor) Save(w io.Writer) error {
	if !p.trained {
		return ErrNotTrained
	}
	discs, chains, err := p.vm.snapshot()
	if err != nil {
		return err
	}
	snap := predictorSnapshot{
		Version:      snapshotVersion,
		Names:        append([]string(nil), p.vm.names...),
		Config:       p.vm.cfg,
		Discretizers: discs,
		Chains:       chains,
		Model:        p.model.Snapshot(),
	}
	s := p.inc
	is := &incrementalSnapshot{
		Counts:   s.ct.Snapshot(),
		Lookback: s.lookback,
		Prev:     s.prev,
		Updates:  s.updates,
	}
	if s.base != nil {
		is.Mean = append([]float64(nil), s.base.mean...)
		is.Std = append([]float64(nil), s.base.std...)
	}
	for k := s.n - 1; k >= 0; k-- { // oldest first
		e := s.at(k)
		is.Ring = append(is.Ring, ringEntrySnapshot{
			Bins:      append([]int(nil), e.bins...),
			Applied:   e.applied,
			Deviating: e.deviating,
			Counted:   e.counted,
		})
	}
	snap.Incremental = is
	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("predict: encode snapshot: %w", err)
	}
	return nil
}

// Load reconstructs a trained predictor saved with Save.
func Load(r io.Reader) (*Predictor, error) {
	var snap predictorSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("predict: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("predict: unsupported snapshot version %d", snap.Version)
	}
	is := snap.Incremental
	if is == nil {
		return nil, errNoCounts
	}
	vm, err := restoreValueModel(snap.Config, snap.Names, snap.Discretizers, snap.Chains)
	if err != nil {
		return nil, err
	}
	p := &Predictor{vm: vm}
	n := len(vm.names)
	model, err := bayes.FromSnapshot(snap.Model)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	if model.NumAttributes() != n {
		return nil, fmt.Errorf("predict: snapshot classifier has %d attributes, want %d",
			model.NumAttributes(), n)
	}
	p.model = model
	p.trained = true
	ct, err := bayes.CountTableFromSnapshot(is.Counts)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	if ct.NumAttributes() != n {
		return nil, fmt.Errorf("predict: snapshot count table has %d attributes, want %d",
			ct.NumAttributes(), n)
	}
	if is.Lookback < 0 || len(is.Ring) > is.Lookback {
		return nil, fmt.Errorf("predict: snapshot ring has %d entries, lookback %d",
			len(is.Ring), is.Lookback)
	}
	inc := &incrementalState{
		ct:         ct,
		lookback:   is.Lookback,
		ring:       make([]ringEntry, 0, is.Lookback),
		prev:       is.Prev,
		updates:    is.Updates,
		binScratch: make([]int, n),
	}
	if is.Mean != nil {
		if len(is.Mean) != n || len(is.Std) != n {
			return nil, fmt.Errorf("predict: snapshot baseline has %d/%d columns, want %d",
				len(is.Mean), len(is.Std), n)
		}
		inc.base = &baseline{
			mean: append([]float64(nil), is.Mean...),
			std:  append([]float64(nil), is.Std...),
		}
	}
	for _, e := range is.Ring {
		if len(e.Bins) != n {
			return nil, fmt.Errorf("predict: snapshot ring entry has %d bins, want %d", len(e.Bins), n)
		}
		inc.push(e.Bins, e.Applied, e.Deviating, e.Counted)
	}
	p.inc = inc
	return p, nil
}
