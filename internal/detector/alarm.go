package detector

import (
	"fmt"
	"math/bits"
)

// AlarmFilter implements the paper's false-alarm filtering: a simple
// majority voting scheme that confirms an anomaly alert only after
// receiving at least K alerts within the most recent W predictions. Real
// anomaly symptoms persist, while most false alarms come from transient,
// sporadic resource spikes. The paper sets K=3, W=4.
//
// It is plain data: the last W raw votes are the low W bits of one
// uint64, newest in bit 0, so copying, resetting or checkpointing a
// filter is copying a value. The zero value confirms nothing; build one
// with NewAlarmFilter.
type AlarmFilter struct {
	votes uint64
	k, w  uint8
}

// DefaultAlarmK and DefaultAlarmW are the paper's filter settings.
const (
	DefaultAlarmK = 3
	DefaultAlarmW = 4
)

// maxAlarmW is the widest vote window: one bit per vote in a uint64.
const maxAlarmW = 64

// NewAlarmFilter builds a K-of-W filter with an empty window. It
// requires 1 ≤ k ≤ w ≤ maxAlarmW.
func NewAlarmFilter(k, w int) (AlarmFilter, error) {
	if w < 1 || w > maxAlarmW {
		return AlarmFilter{}, fmt.Errorf("detector: alarm window %d must be in [1, %d]", w, maxAlarmW)
	}
	if k < 1 || k > w {
		return AlarmFilter{}, fmt.Errorf("detector: alarm threshold %d must be in [1, %d]", k, w)
	}
	return AlarmFilter{k: uint8(k), w: uint8(w)}, nil
}

// Push records the latest raw prediction, evicting the vote W
// predictions old. Each Push is one vote: offer exactly one per
// sampling tick, or k-of-W becomes k-of-fewer ticks.
func (f *AlarmFilter) Push(alert bool) {
	var b uint64
	if alert {
		b = 1
	}
	f.votes = (f.votes<<1 | b) & (^uint64(0) >> (maxAlarmW - f.w))
}

// Confirmed reports whether at least K of the last W raw predictions
// were alerts. Votes from before the last Reset count as quiet.
func (f *AlarmFilter) Confirmed() bool {
	return f.k > 0 && bits.OnesCount64(f.votes) >= int(f.k)
}

// Offer is Push followed by Confirmed.
func (f *AlarmFilter) Offer(alert bool) bool {
	f.Push(alert)
	return f.Confirmed()
}

// Reset clears the vote window (used after a prevention action so
// stale alerts do not immediately re-trigger).
func (f *AlarmFilter) Reset() { f.votes = 0 }

// K returns the confirmation threshold.
func (f *AlarmFilter) K() int { return int(f.k) }

// W returns the voting window size.
func (f *AlarmFilter) W() int { return int(f.w) }
