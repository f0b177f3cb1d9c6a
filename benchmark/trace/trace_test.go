package trace

import (
	"testing"
	"time"
)

func layer(t *testing.T, layers []LayerTime, name string) LayerTime {
	t.Helper()
	for _, l := range layers {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no layer %q in %+v", name, layers)
	return LayerTime{}
}

// Self time is duration minus the union of the children's intervals
// clipped to the parent: overlapping children are not subtracted twice,
// and a child running past its parent only counts up to the parent's
// end.
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "tick", StartNs: 0, EndNs: 100, Parent: NoSpan},
		{Name: "collect", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "score", StartNs: 20, EndNs: 50, Parent: 0},  // overlaps collect by 10
		{Name: "score", StartNs: 90, EndNs: 120, Parent: 0}, // 20 of it past the parent
		{Name: "kernel", StartNs: 25, EndNs: 45, Parent: 2},
	}
	layers := SelfTimes(spans)
	if got := layer(t, layers, "tick"); got.TotalNs != 100 || got.SelfNs != 100-(40+10) || got.Count != 1 {
		t.Errorf("tick = %+v, want total 100 self 50", got)
	}
	if got := layer(t, layers, "score"); got.Count != 2 || got.TotalNs != 60 || got.SelfNs != 60-20 {
		t.Errorf("score = %+v, want 2 spans, total 60, self 40", got)
	}
	if got := layer(t, layers, "kernel"); got.SelfNs != 20 {
		t.Errorf("kernel = %+v, want self 20", got)
	}
	if layers[0].Name != "tick" {
		t.Errorf("layers are not sorted by self time: %+v", layers)
	}
}

func TestTracerRecordsParentsAndPremeasuredChildren(t *testing.T) {
	tr := New()
	root := tr.Begin("tick", NoSpan, 7)
	child := tr.Begin("step", root, 7)
	tr.Add("generator", child, 7, 3*time.Millisecond)
	tr.End(child)
	tr.End(root)
	open := tr.Begin("never closed", NoSpan, 8)
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[child].Parent != root || spans[2].Parent != child || spans[2].Op != 7 {
		t.Errorf("wrong parents or op: %+v", spans)
	}
	if d := spans[2].EndNs - spans[2].StartNs; d != (3*time.Millisecond).Nanoseconds() || spans[2].StartNs != spans[child].StartNs {
		t.Errorf("added span %+v should start with its parent and last 3ms", spans[2])
	}
	if spans[open].EndNs != spans[open].StartNs {
		t.Errorf("an open span should read as empty, got %+v", spans[open])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", NoSpan, 0)
	tr.Add("y", id, 0, time.Second)
	tr.End(id)
	if id != NoSpan || tr.Spans() != nil {
		t.Errorf("nil tracer returned %d and %v", id, tr.Spans())
	}
}
