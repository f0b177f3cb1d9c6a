// Package monitor implements PREPARE's VM monitoring module: out-of-band
// collection of 13 system-level attributes per VM (the simulated analogue
// of domain-0 libxenstat plus the in-guest memory daemon), an SLO
// violation log fed by the external SLO tracker, and automatic runtime
// data labeling that matches metric timestamps against that log.
package monitor

import (
	"fmt"
	"sort"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

// SLORecord is one observation of the application's SLO state.
type SLORecord struct {
	Time     simclock.Time
	Violated bool
}

// SLOLog records the application's SLO state over time. Records must be
// appended in non-decreasing time order. The zero value is ready to use.
//
// The log keeps change points, not observations: a record is stored only
// when it flips the state (the first one included), plus a count for Len
// and the last time for End. Every query reads the latest record at or
// before its instant, and a dropped repeat never changes which state
// that record carries, so answers are those of the full log at a size
// proportional to the number of flips rather than the run length.
// Same-instant flips are stored like any other.
type SLOLog struct {
	changes []SLORecord
	n       int
	end     simclock.Time
}

// Record appends an SLO observation. Out-of-order records are rejected.
func (l *SLOLog) Record(now simclock.Time, violated bool) error {
	if l.n > 0 && now.Before(l.end) {
		return fmt.Errorf("monitor: SLO record at %v after %v", now, l.end)
	}
	if k := len(l.changes); k == 0 || l.changes[k-1].Violated != violated {
		l.changes = append(l.changes, SLORecord{Time: now, Violated: violated})
	}
	l.n++
	l.end = now
	return nil
}

// Len returns the number of records.
func (l *SLOLog) Len() int { return l.n }

// End returns the time of the latest record (zero when empty).
func (l *SLOLog) End() simclock.Time { return l.end }

// ViolatedAt reports the SLO state at time t, using the most recent
// record at or before t. Times before the first record report false.
func (l *SLOLog) ViolatedAt(t simclock.Time) bool {
	idx := sort.Search(len(l.changes), func(i int) bool {
		return l.changes[i].Time.After(t)
	})
	if idx == 0 {
		return false
	}
	return l.changes[idx-1].Violated
}

// Label converts the SLO state at t into a sample label, implementing the
// paper's automatic runtime data labeling.
func (l *SLOLog) Label(t simclock.Time) metrics.Label {
	if l.n == 0 {
		return metrics.LabelUnknown
	}
	if l.ViolatedAt(t) {
		return metrics.LabelAbnormal
	}
	return metrics.LabelNormal
}

// ViolationSeconds returns the total number of seconds in [from, to)
// during which the SLO was violated — the paper's headline "SLO violation
// time" measure.
func (l *SLOLog) ViolationSeconds(from, to simclock.Time) int64 {
	total := int64(0)
	for _, iv := range l.Violations(from, to) {
		total += iv[1].Sub(iv[0])
	}
	return total
}

// Violations returns the violated intervals within [from, to) as
// [start, end) pairs, for trace plotting and diagnostics.
func (l *SLOLog) Violations(from, to simclock.Time) [][2]simclock.Time {
	var out [][2]simclock.Time
	// Change point i holds its state over [its time, the next one's
	// time); a same-instant flip leaves an empty span, which must not
	// split the violated spans on either side of it.
	for i, c := range l.changes {
		if !c.Violated {
			continue
		}
		start, end := c.Time, to
		if i+1 < len(l.changes) && l.changes[i+1].Time.Before(to) {
			end = l.changes[i+1].Time
		}
		if start.Before(from) {
			start = from
		}
		if !start.Before(end) {
			continue
		}
		if k := len(out); k > 0 && out[k-1][1] == start {
			out[k-1][1] = end
			continue
		}
		out = append(out, [2]simclock.Time{start, end})
	}
	return out
}
