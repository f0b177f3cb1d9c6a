package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"prepare/internal/bayes"
	"prepare/internal/binenc"
	"prepare/internal/markov"
	"prepare/internal/metrics"
)

// predictorSnapshot is the one snapshot of a trained predictor. Save
// and Load give it its JSON form; appendBinary and decodePredictor its
// binary checkpoint form, in which the header stays JSON.
type predictorSnapshot struct {
	predictorHeader
	Chains []markov.Snapshot `json:"chains"`
	Model  bayes.Snapshot    `json:"model"`
	// Incremental carries the sufficient statistics every trained
	// predictor keeps (count table, baseline, look-back ring). It is
	// required: Load refuses a snapshot without it (errNoCounts).
	Incremental *incrementalSnapshot `json:"incremental"`
}

// predictorHeader is the small scalar part of predictorSnapshot.
type predictorHeader struct {
	Version      int                           `json:"version"`
	Names        []string                      `json:"names"`
	Config       Config                        `json:"config"`
	Discretizers []metrics.DiscretizerSnapshot `json:"discretizers"`
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

// maxLookback bounds a restored look-back ring, whose capacity is sized
// from the snapshot's lookback rather than from the entries it carries.
const maxLookback = 1 << 20

// errNoCounts refuses a snapshot that carries no count table: the
// predictor it describes could neither fold samples nor retrain.
var errNoCounts = errors.New("predict: snapshot has no incremental counts")

// Save writes the trained predictor as JSON, so a model trained offline
// can be deployed to score live streams without retraining.
func (p *Predictor) Save(w io.Writer) error {
	snap, err := p.snapshot()
	if err != nil {
		return err
	}
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
	return fromSnapshot(&snap)
}

// appendBinary appends the predictor's snapshot in the binary
// checkpoint encoding to b. The snapshot is captured into pooled
// scratch, so a checkpoint of many predictors reuses one set of
// snapshot buffers rather than allocating one per predictor.
func (p *Predictor) appendBinary(b []byte) ([]byte, error) {
	snap := snapshotScratch.Get().(*predictorSnapshot)
	defer snapshotScratch.Put(snap)
	if err := p.snapshotInto(snap); err != nil {
		return b, err
	}
	e := binenc.NewEncoder(b)
	snap.encode(&e)
	return e.Finish()
}

// snapshotScratch holds the snapshots appendBinary captures into.
var snapshotScratch = sync.Pool{New: func() any { return new(predictorSnapshot) }}

// decodePredictor restores a predictor from the bytes appendBinary
// wrote, through the same checks as Load.
func decodePredictor(b []byte) (*Predictor, error) {
	var snap predictorSnapshot
	d := binenc.NewDecoder(b)
	snap.decode(&d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("predict: decode snapshot: %w", err)
	}
	return fromSnapshot(&snap)
}

// snapshot captures the trained predictor into a snapshot of its own.
func (p *Predictor) snapshot() (predictorSnapshot, error) {
	var snap predictorSnapshot
	err := p.snapshotInto(&snap)
	return snap, err
}

// snapshotInto captures the trained predictor into snap, overwriting
// every field and reusing the storage snap already holds.
func (p *Predictor) snapshotInto(snap *predictorSnapshot) error {
	if !p.trained {
		return ErrNotTrained
	}
	h := &snap.predictorHeader
	var err error
	if h.Discretizers, snap.Chains, err = p.vm.snapshot(h.Discretizers, snap.Chains); err != nil {
		return err
	}
	h.Version = snapshotVersion
	h.Names = append(h.Names[:0], p.vm.names...)
	h.Config = p.vm.cfg
	p.model.SnapshotInto(&snap.Model)
	if snap.Incremental == nil {
		snap.Incremental = new(incrementalSnapshot)
	}
	s, is := p.inc, snap.Incremental
	s.ct.SnapshotInto(&is.Counts)
	is.Lookback, is.Prev, is.Updates = s.lookback, s.prev, s.updates
	is.Mean, is.Std = nil, nil
	if s.base != nil {
		is.Mean = append([]float64(nil), s.base.mean...)
		is.Std = append([]float64(nil), s.base.std...)
	}
	is.Ring = nil
	for k := s.n - 1; k >= 0; k-- { // oldest first
		e := s.at(k)
		is.Ring = append(is.Ring, ringEntrySnapshot{
			Bins:      append([]int(nil), e.bins...),
			Applied:   e.applied,
			Deviating: e.deviating,
			Counted:   e.counted,
		})
	}
	return nil
}

// encode appends the binary form: the JSON header, then the chains, the
// model, the count table and the streaming state, a section each. A
// snapshot without counts ends after the model.
func (s *predictorSnapshot) encode(e *binenc.Encoder) {
	e.JSON(&s.predictorHeader)
	encodeChains(e, s.Chains)
	mark := e.Begin()
	s.Model.Encode(e)
	e.End(mark)
	if is := s.Incremental; is != nil {
		mark = e.Begin()
		is.Counts.Encode(e)
		e.End(mark)
		mark = e.Begin()
		is.encodeStream(e)
		e.End(mark)
	}
}

// decode reads what encode appended.
func (s *predictorSnapshot) decode(d *binenc.Decoder) {
	d.JSON(&s.predictorHeader)
	s.Chains = decodeChains(d)
	d.Nested(s.Model.Decode)
	if d.Err() != nil || d.Remaining() == 0 {
		return
	}
	is := new(incrementalSnapshot)
	d.Nested(is.Counts.Decode)
	d.Nested(is.decodeStream)
	s.Incremental = is
}

// encodeStream appends everything but the counts.
func (is *incrementalSnapshot) encodeStream(e *binenc.Encoder) {
	e.Floats(is.Mean)
	e.Floats(is.Std)
	e.Int(int64(is.Lookback))
	e.Uvarint(uint64(len(is.Ring)))
	for _, r := range is.Ring {
		e.Ints(r.Bins)
		e.Int(int64(r.Applied))
		e.Bool(r.Deviating)
		e.Bool(r.Counted)
	}
	e.Int(int64(is.Prev))
	e.Uvarint(is.Updates)
}

// decodeStream reads what encodeStream appended.
func (is *incrementalSnapshot) decodeStream(d *binenc.Decoder) {
	is.Mean, is.Std = d.Floats(), d.Floats()
	is.Lookback = int(d.Int())
	if n := d.Len(4); n > 0 {
		is.Ring = make([]ringEntrySnapshot, n)
		for i := range is.Ring {
			r := &is.Ring[i]
			r.Bins = d.Ints()
			r.Applied = metrics.Label(d.Int())
			r.Deviating, r.Counted = d.Bool(), d.Bool()
		}
	}
	is.Prev = metrics.Label(d.Int())
	is.Updates = d.Uvarint()
}

// encodeChains appends the chains as one section.
func encodeChains(e *binenc.Encoder, chains []markov.Snapshot) {
	mark := e.Begin()
	e.Uvarint(uint64(len(chains)))
	for i := range chains {
		chains[i].Encode(e)
	}
	e.End(mark)
}

// decodeChains reads what encodeChains appended.
func decodeChains(d *binenc.Decoder) []markov.Snapshot {
	var chains []markov.Snapshot
	d.Nested(func(d *binenc.Decoder) {
		// Order, states, the position and the count block's cell count
		// take a byte each at least.
		chains = make([]markov.Snapshot, d.Len(6))
		for i := range chains {
			chains[i].Decode(d)
		}
	})
	return chains
}

// fromSnapshot is the one validating restore of a predictor snapshot,
// whichever encoding it was read from.
func fromSnapshot(snap *predictorSnapshot) (*Predictor, error) {
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
	if is.Lookback < 0 || is.Lookback > maxLookback || len(is.Ring) > is.Lookback {
		return nil, fmt.Errorf("predict: snapshot ring has %d entries, lookback %d (at most %d)",
			len(is.Ring), is.Lookback, maxLookback)
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
