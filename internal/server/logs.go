package server

import (
	"sync"

	"prepare/internal/infer"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// Alert is one published confirmed alert, tagged with a monotonically
// increasing sequence number for cursor-based consumption.
type Alert struct {
	Seq       uint64         `json:"seq"`
	Tenant    string         `json:"tenant"`
	Time      simclock.Time  `json:"time_s"`
	VM        substrate.VMID `json:"vm"`
	Score     float64        `json:"score"`
	Predicted bool           `json:"predicted"`
}

// AuditEntry is one published actuation, tagged like Alert.
type AuditEntry struct {
	Seq      uint64               `json:"seq"`
	Tenant   string               `json:"tenant"`
	Time     simclock.Time        `json:"time_s"`
	VM       substrate.VMID       `json:"vm"`
	Kind     substrate.ActionKind `json:"kind"`
	Resource infer.ResourceKind   `json:"resource"`
	Detail   string               `json:"detail"`
}

// eventLog is a bounded ring of sequence-numbered records. The
// publisher goroutine is the only appender; readers take the read lock.
// Sequence numbers start at 1 and never reuse — when the ring wraps,
// firstSeq advances and cursor reads report the truncation.
type eventLog[T any] struct {
	mu    sync.RWMutex
	buf   []T // grows to size, then wraps: the oldest record is at head
	size  int
	head  int
	next  uint64 // newest sequence number assigned (0 = none yet)
	first uint64 // sequence of the oldest retained record (0 = empty)
}

func newEventLog[T any](capacity int) *eventLog[T] {
	return &eventLog[T]{buf: make([]T, 0, capacity), size: capacity}
}

// append stores make(seq) under the next sequence number, over the
// oldest record once the ring is full.
func (l *eventLog[T]) append(make func(seq uint64) T) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.next + 1
	l.next = seq
	if l.first == 0 {
		l.first = seq
	}
	if len(l.buf) == l.size {
		l.buf[l.head] = make(seq)
		if l.head++; l.head == l.size {
			l.head = 0
		}
		l.first++
	} else {
		l.buf = append(l.buf, make(seq))
	}
	return seq
}

// since returns up to limit records with sequence numbers strictly
// greater than cursor, the cursor to pass next, the oldest retained
// sequence, and whether records between cursor and the oldest retained
// one have been evicted (the caller missed them). A cursor at or past
// the newest record reads an empty, untruncated page.
func (l *eventLog[T]) since(cursor uint64, limit int) (items []T, next uint64, first uint64, truncated bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	next = cursor
	first = l.first
	if cursor >= l.next { // nothing published past the cursor
		return nil, next, first, false
	}
	truncated = cursor+1 < l.first
	start := cursor + 1
	if start < l.first {
		start = l.first
	}
	if limit <= 0 {
		limit = len(l.buf)
	}
	for seq := start; seq <= l.next && len(items) < limit; seq++ {
		items = append(items, l.buf[(l.head+int(seq-l.first))%len(l.buf)])
		next = seq
	}
	return items, next, first, truncated
}

// len returns the retained record count.
func (l *eventLog[T]) retained() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.buf)
}

// Alerts returns published alerts with sequence numbers strictly
// greater than since (limit <= 0 returns all retained).
func (s *Server) Alerts(since uint64, limit int) []Alert {
	items, _, _, _ := s.alerts.since(since, limit)
	return items
}

// Audit returns published actuations the same way.
func (s *Server) Audit(since uint64, limit int) []AuditEntry {
	items, _, _, _ := s.audit.since(since, limit)
	return items
}
