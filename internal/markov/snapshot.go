package markov

import (
	"fmt"
	"math"

	"prepare/internal/binenc"
)

// Snapshot is a serializable dump of a chain's state (transition counts
// plus the current position), used to persist trained predictors.
type Snapshot struct {
	// Order is 1 for SimpleChain, 2 for TwoDepChain.
	Order int `json:"order"`
	// States is the number of discretized states.
	States int `json:"states"`
	// Counts holds the transition counts as whole numbers: States rows
	// for order 1, States*States rows (row prev*States+cur) for order 2.
	Counts [][]float64 `json:"counts"`
	// Cur / Prev / Seen capture the chain position.
	Cur   int `json:"cur"`
	Prev  int `json:"prev"`
	NSeen int `json:"nSeen"`
}

// SnapshotInto exports the chain state into s, reusing its count rows
// when they already have the chain's shape.
func (c *SimpleChain) SnapshotInto(s *Snapshot) {
	st := c.states
	s.Counts = floatRows(s.Counts, st, st)
	for i, row := range s.Counts {
		for j := range row {
			row[j] = float64(c.counts[i*st+j])
		}
	}
	nSeen := 0
	if c.seen {
		nSeen = 1
	}
	s.Order, s.States, s.Cur, s.Prev, s.NSeen = 1, st, c.cur, 0, nSeen
}

// SnapshotInto exports the chain state into s, reusing its count rows
// when they already have the chain's shape.
func (c *TwoDepChain) SnapshotInto(s *Snapshot) {
	st := c.states
	s.Counts = floatRows(s.Counts, st*st, st)
	for i, row := range s.Counts {
		r := (i%st)*st + i/st // row (prev, cur) = (i/st, i%st), stored at cur*st+prev
		for j, n := range c.counts[r*st : (r+1)*st] {
			row[j] = float64(n)
		}
	}
	s.Order, s.States, s.Cur, s.Prev, s.NSeen = 2, st, c.cur, c.prev, c.nSeen
}

// floatRows returns rows if it already holds n rows of width w, else n
// new rows of width w carved out of one backing array.
func floatRows(rows [][]float64, n, w int) [][]float64 {
	same := rows != nil && len(rows) == n
	for i := 0; same && i < n; i++ {
		same = len(rows[i]) == w
	}
	if same {
		return rows
	}
	flat := make([]float64, n*w)
	rows = make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// snapshotCounts checks that every row of the snapshot has States
// counts, each a whole number in [0, maxCount], and hands them to set
// in row-major order.
func (s Snapshot) snapshotCounts(set func(i, j int, n uint32)) error {
	for i, row := range s.Counts {
		if len(row) != s.States {
			return fmt.Errorf("markov: snapshot row %d has %d cols, want %d", i, len(row), s.States)
		}
		for j, n := range row {
			if !(n >= 0 && n <= maxCount && n == math.Trunc(n)) {
				return fmt.Errorf("markov: snapshot count [%d][%d] = %v is not a whole number in [0, %d]", i, j, n, uint32(maxCount))
			}
			set(i, j, uint32(n))
		}
	}
	return nil
}

// FromSnapshot reconstructs a Predictor from a snapshot. It rejects a
// snapshot whose counts are not whole numbers in [0, 2^32-1], or whose
// totals would pass that bound, so a restored chain's rows are finite
// non-negative probabilities.
func FromSnapshot(s Snapshot) (Predictor, error) {
	if s.States < 1 {
		return nil, fmt.Errorf("markov: snapshot states %d invalid", s.States)
	}
	if s.Order != 1 && s.Order != 2 {
		return nil, fmt.Errorf("markov: unknown snapshot order %d", s.Order)
	}
	st := s.States
	rows := st
	if s.Order == 2 {
		rows = st * st
	}
	// Checked before any storage is sized from States.
	if len(s.Counts) != rows {
		return nil, fmt.Errorf("markov: snapshot has %d rows, want %d", len(s.Counts), rows)
	}
	if s.Cur < 0 || s.Cur >= st || s.Prev < 0 || s.Prev >= st {
		return nil, fmt.Errorf("markov: snapshot position out of range")
	}
	if s.NSeen < 0 || s.NSeen > s.Order {
		return nil, fmt.Errorf("markov: snapshot nSeen %d not in [0,%d]", s.NSeen, s.Order)
	}
	if s.Order == 1 {
		c, err := NewSimpleChain(st)
		if err != nil {
			return nil, err
		}
		if err := s.snapshotCounts(func(i, j int, n uint32) { c.counts[i*st+j] = n }); err != nil {
			return nil, err
		}
		c.cur, c.seen = s.Cur, s.NSeen > 0
		return c, nil
	}
	c, err := NewTwoDepChain(st)
	if err != nil {
		return nil, err
	}
	colTot := make([]uint64, st)
	if err := s.snapshotCounts(func(i, j int, n uint32) {
		prev, cur := i/st, i%st
		c.counts[(cur*st+prev)*st+j] = n
		colTot[cur] += uint64(n)
	}); err != nil {
		return nil, err
	}
	for cur, total := range colTot {
		if total > maxCount {
			return nil, fmt.Errorf("%w: snapshot column %d totals %d", ErrCountOverflow, cur, total)
		}
	}
	for r := range c.rowTot {
		cur := r / st
		for j, n := range c.counts[r*st : (r+1)*st] {
			c.rowTot[r] += n
			c.colAgg[cur*st+j] += n
		}
		c.colTot[cur] += c.rowTot[r]
	}
	c.cur, c.prev, c.nSeen = s.Cur, s.Prev, s.NSeen
	return c, nil
}

// Encode appends the snapshot in the binary checkpoint encoding: order,
// states and position, then the counts as one count block.
func (s *Snapshot) Encode(e *binenc.Encoder) {
	e.Uvarint(uint64(s.Order))
	e.Uvarint(uint64(s.States))
	e.Int(int64(s.Cur))
	e.Int(int64(s.Prev))
	e.Int(int64(s.NSeen))
	e.Counts(s.Counts)
}

// Decode reads a snapshot Encode appended. It checks only what sizing
// the rows needs; FromSnapshot checks the rest.
func (s *Snapshot) Decode(d *binenc.Decoder) {
	order, states := d.Uvarint(), d.Uvarint()
	s.Cur, s.Prev, s.NSeen = int(d.Int()), int(d.Int()), int(d.Int())
	flat := d.Counts()
	if d.Err() != nil {
		return
	}
	if order != 1 && order != 2 {
		d.Fail(fmt.Errorf("markov: unknown snapshot order %d", order))
		return
	}
	// Counts must be states^(order+1); divided out, so a hostile
	// states cannot overflow the product.
	st, rows := int(states), 0
	ok := states >= 1 && states <= uint64(len(flat)) && len(flat)%st == 0
	if ok {
		rows = len(flat) / st
		if order == 1 {
			ok = rows == st
		} else {
			ok = rows%st == 0 && rows/st == st
		}
	}
	if !ok {
		d.Fail(fmt.Errorf("markov: snapshot of %d states and order %d has %d counts", states, order, len(flat)))
		return
	}
	s.Order, s.States = int(order), st
	s.Counts = make([][]float64, rows)
	for i := range s.Counts {
		s.Counts[i] = flat[i*st : (i+1)*st : (i+1)*st]
	}
}
