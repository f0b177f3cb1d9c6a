package predict

import (
	"fmt"

	"prepare/internal/markov"
	"prepare/internal/metrics"
)

// valueModel is the paper's attribute value prediction module: one
// equal-width discretizer and one Markov chain per named column. Both
// classifier families sit on it — the supervised TAN (Predictor) and
// the Section V outlier scorers (outlierDetector) — so it is the only
// code that fits discretizers, builds chains, advances them and
// converts them to and from their snapshot forms. Holders index disc
// and chains directly on their hot paths.
type valueModel struct {
	cfg    Config
	names  []string
	disc   []*metrics.EqualWidth
	chains []markov.Predictor
}

// newValueModel validates the configuration and returns an unfitted
// model over the named columns.
func newValueModel(cfg Config, names []string) (valueModel, error) {
	if len(names) == 0 {
		return valueModel{}, fmt.Errorf("predict: at least one column is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Order != SimpleMarkov && cfg.Order != TwoDependent {
		return valueModel{}, fmt.Errorf("predict: unsupported markov order %d", cfg.Order)
	}
	cp := make([]string, len(names))
	copy(cp, names)
	return valueModel{cfg: cfg, names: cp}, nil
}

// fit fits a discretizer per column over rows, builds fresh chains and
// feeds them the rows in order. On error the model is left as it was.
func (m *valueModel) fit(rows [][]float64) error {
	if len(rows) == 0 {
		return ErrNoData
	}
	nCols := len(m.names)
	for i, r := range rows {
		if len(r) != nCols {
			return fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), nCols)
		}
	}
	disc := make([]*metrics.EqualWidth, nCols)
	chains := make([]markov.Predictor, nCols)
	col := make([]float64, len(rows))
	for j := 0; j < nCols; j++ {
		for i := range rows {
			col[i] = rows[i][j]
		}
		d, err := metrics.NewEqualWidth(col, m.cfg.Bins)
		if err != nil {
			return fmt.Errorf("predict: fit discretizer for %s: %w", m.names[j], err)
		}
		disc[j] = d
		if m.cfg.Order == SimpleMarkov {
			chains[j], err = markov.NewSimpleChain(m.cfg.Bins)
		} else {
			chains[j], err = markov.NewTwoDepChain(m.cfg.Bins)
		}
		if err != nil {
			return fmt.Errorf("predict: new chain: %w", err)
		}
	}
	for _, row := range rows {
		for j, v := range row {
			if err := chains[j].Observe(disc[j].Bin(v)); err != nil {
				return fmt.Errorf("predict: observe: %w", err)
			}
		}
	}
	m.disc, m.chains = disc, chains
	return nil
}

// observe advances every chain by one runtime row.
func (m *valueModel) observe(row []float64) error {
	if len(row) != len(m.names) {
		return fmt.Errorf("%w: row has %d columns, want %d", ErrShape, len(row), len(m.names))
	}
	for j, v := range row {
		if err := m.chains[j].Observe(m.disc[j].Bin(v)); err != nil {
			return fmt.Errorf("predict: observe: %w", err)
		}
	}
	return nil
}

// stepsFor converts a look-ahead window in seconds into prediction
// steps (at least 1).
func (m *valueModel) stepsFor(lookaheadS int64) int {
	steps := int((lookaheadS + m.cfg.SamplingIntervalS - 1) / m.cfg.SamplingIntervalS)
	if steps < 1 {
		steps = 1
	}
	return steps
}

// snapshot exports the fitted discretizers and chains into discs and
// chains, reusing their elements' storage, and returns them resized.
func (m *valueModel) snapshot(discs []metrics.DiscretizerSnapshot, chains []markov.Snapshot) ([]metrics.DiscretizerSnapshot, []markov.Snapshot, error) {
	n := len(m.names)
	if cap(discs) < n {
		discs = make([]metrics.DiscretizerSnapshot, n)
	}
	if cap(chains) < n {
		chains = make([]markov.Snapshot, n)
	}
	discs, chains = discs[:n], chains[:n]
	for j, name := range m.names {
		discs[j] = m.disc[j].Snapshot()
		switch ch := m.chains[j].(type) {
		case *markov.SimpleChain:
			ch.SnapshotInto(&chains[j])
		case *markov.TwoDepChain:
			ch.SnapshotInto(&chains[j])
		default:
			return nil, nil, fmt.Errorf("predict: unsupported chain type for %s", name)
		}
	}
	return discs, chains, nil
}

// restoreValueModel rebuilds a fitted model from the parts a snapshot
// carries, rejecting one whose widths disagree with its names.
func restoreValueModel(cfg Config, names []string, discs []metrics.DiscretizerSnapshot, chains []markov.Snapshot) (valueModel, error) {
	n := len(names)
	if n == 0 {
		return valueModel{}, fmt.Errorf("predict: snapshot has no columns")
	}
	if len(discs) != n || len(chains) != n {
		return valueModel{}, fmt.Errorf("predict: snapshot shape mismatch (%d names, %d discretizers, %d chains)",
			n, len(discs), len(chains))
	}
	m, err := newValueModel(cfg, names)
	if err != nil {
		return valueModel{}, err
	}
	m.disc = make([]*metrics.EqualWidth, n)
	m.chains = make([]markov.Predictor, n)
	for j := 0; j < n; j++ {
		if m.disc[j], err = metrics.DiscretizerFromSnapshot(discs[j]); err != nil {
			return valueModel{}, fmt.Errorf("predict: column %s: %w", names[j], err)
		}
		if m.chains[j], err = markov.FromSnapshot(chains[j]); err != nil {
			return valueModel{}, fmt.Errorf("predict: column %s: %w", names[j], err)
		}
	}
	return m, nil
}
