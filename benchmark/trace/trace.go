// Package trace is the benchmark's in-memory span recorder. The traced
// pass of a workload wraps every call the benchmark makes into a
// layer's public functions in a span (name, start, end, parent, op id);
// spans stay in memory and are written out once when the pass ends. A
// span's self time is its duration minus the part of it covered by its
// child spans, which is how the benchmark's own generator time (its
// substrate callbacks run inside the system's tick) is kept out of the
// system's numbers.
//
// A nil *Tracer records nothing and costs a nil check, so the untraced
// pass runs the identical code path.
package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval. Parent is the index of the span that
// caused it, or -1 for a root; Op groups the spans of one operation
// (one tick, one ingest call, one poll).
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int64  `json:"op_id"`
}

// NoSpan is the ID a nil tracer hands out and the parent of root spans.
const NoSpan int32 = -1

// Tracer collects spans from any number of goroutines.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// New returns a tracer whose clock starts now.
func New() *Tracer { return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return NoSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, StartNs: now, EndNs: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// End closes the span.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// Add records an already-measured child interval: a span that started
// at the parent's start and lasted d. The benchmark uses it to book the
// summed time of a hot callback (a thousand substrate reads inside one
// tick) as a single child instead of a thousand spans.
func (t *Tracer) Add(name string, parent int32, op int64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	start := int64(0)
	if parent >= 0 {
		start = t.spans[parent].StartNs
	}
	t.spans = append(t.spans, Span{Name: name, StartNs: start, EndNs: start + d.Nanoseconds(), Parent: parent, Op: op})
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far; spans still open
// are closed at their start (zero duration).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if out[i].EndNs < out[i].StartNs {
			out[i].EndNs = out[i].StartNs
		}
	}
	return out
}

// LayerTime is the aggregate of every span sharing one name.
type LayerTime struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// SelfTimes computes each span's self time — duration minus the union
// of its children's intervals clipped to it — and aggregates by name,
// sorted by descending self time.
func SelfTimes(spans []Span) []LayerTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	agg := make(map[string]*LayerTime)
	for i, s := range spans {
		dur := s.EndNs - s.StartNs
		self := dur - covered(spans, s, children[int32(i)])
		a := agg[s.Name]
		if a == nil {
			a = &LayerTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalNs += dur
		a.SelfNs += self
	}
	out := make([]LayerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of the child intervals,
// clipped to the parent, so overlapping children (two goroutines under
// one parent) are not subtracted twice.
func covered(spans []Span, parent Span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].StartNs, spans[k].EndNs
		if lo < parent.StartNs {
			lo = parent.StartNs
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.StartNs
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// maxSpansWritten bounds the span list in the trace file; the per-layer
// summary always covers every span.
const maxSpansWritten = 50000

// File is the document written to benchmark/out/trace.<workload>.json.
type File struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Spans    int         `json:"spans_recorded"`
	Layers   []LayerTime `json:"layers"`
	First    []Span      `json:"spans"`
}

// Write stores the trace for a workload at path, creating the directory.
func Write(path, workload string, seed int64, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := File{Workload: workload, Seed: seed, Spans: len(spans), Layers: SelfTimes(spans), First: spans}
	if len(doc.First) > maxSpansWritten {
		doc.First = doc.First[:maxSpansWritten]
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
