package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 || g.Max() != 0 {
		t.Error("nil gauge not zero")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram not zero")
	}
}

func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry should hand out nil instruments")
	}
	if r.Trace() != nil {
		t.Error("nil registry trace != nil")
	}
	r.Emit(1, "vm", StageControl, KindAlertRaised, "")
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot != nil")
	}
	r.Merge(&Snapshot{})
}

func TestCounter(t *testing.T) {
	r := New(Options{})
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only grow
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Error("same name should return the same counter")
	}
}

func TestGaugeHighWater(t *testing.T) {
	g := New(Options{}).Gauge("g")
	g.Set(3)
	g.Set(8)
	g.Set(2)
	if g.Value() != 2 {
		t.Errorf("value = %g, want 2", g.Value())
	}
	if g.Max() != 8 {
		t.Errorf("max = %g, want 8", g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := New(Options{}).HistogramWith("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Errorf("sum = %g, want 106.5", h.Sum())
	}
	want := []uint64{2, 1, 1} // ≤1, (1,10], +Inf — bounds are inclusive upper limits
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

// TestConcurrentInstruments exercises every instrument from many
// goroutines; meaningful under -race, and the totals check catches lost
// updates.
func TestConcurrentInstruments(t *testing.T) {
	r := New(Options{TraceCapacity: 64})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(w*perWorker + i))
				h.Observe(1e-4)
				r.Emit(int64(i), "vm", StageControl, KindAlertRaised, "")
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("c"); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Histograms["h"].Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauges["g"].Max; got != workers*perWorker-1 {
		t.Errorf("gauge max = %g, want %d", got, workers*perWorker-1)
	}
	wantDropped := uint64(workers*perWorker - 64)
	if s.DroppedEvents != wantDropped {
		t.Errorf("dropped = %d, want %d", s.DroppedEvents, wantDropped)
	}
}

func TestTraceWraparound(t *testing.T) {
	r := New(Options{TraceCapacity: 4})
	for i := 1; i <= 10; i++ {
		r.Emit(int64(i), "vm", StagePredict, KindPredictionWindow, "")
	}
	events := r.Trace().Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(7 + i) // oldest retained is the 7th emission
		if e.Seq != wantSeq || e.SimTime != int64(wantSeq) {
			t.Errorf("event[%d] = seq %d t %d, want seq/t %d", i, e.Seq, e.SimTime, wantSeq)
		}
	}
	if got := r.Trace().Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := New(Options{})
	a.Counter("c").Add(3)
	a.Gauge("g").Set(5)
	h := a.Histogram("h")
	h.Observe(1e-4)
	h.Observe(2)
	a.Emit(10, "vm-1", StagePrevent, KindScalingApplied, "cpu->150%", F("amount", 1.5))

	b := New(Options{})
	b.Counter("c").Add(2)
	b.Gauge("g").Set(9)
	b.Gauge("g").Set(1) // last value 1, max 9
	b.Histogram("h").Observe(2)

	a.Merge(b.Snapshot())
	s := a.Snapshot()
	if got := s.Counter("c"); got != 5 {
		t.Errorf("merged counter = %d, want 5", got)
	}
	if s.Gauges["g"].Max != 9 {
		t.Errorf("merged gauge max = %g, want 9", s.Gauges["g"].Max)
	}
	hs := s.Histograms["h"]
	if hs.Count != 3 || hs.Sum != 2+2+1e-4 {
		t.Errorf("merged histogram count/sum = %d/%g", hs.Count, hs.Sum)
	}
	if len(s.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(s.Events))
	}
	ev := s.Events[0]
	if ev.Kind != KindScalingApplied || ev.Detail != "cpu->150%" ||
		len(ev.Fields) != 1 || ev.Fields[0] != F("amount", 1.5) {
		t.Errorf("event = %+v", ev)
	}
}

func TestMergeMismatchedBounds(t *testing.T) {
	a := New(Options{})
	a.HistogramWith("h", []float64{1, 10})
	b := New(Options{})
	bh := b.HistogramWith("h", []float64{5})
	bh.Observe(3)
	bh.Observe(100)

	a.Merge(b.Snapshot())
	hs := a.Snapshot().Histograms["h"]
	// Count is preserved even though the shapes differ: the fold
	// re-observes each bucket's upper bound.
	if hs.Count != 2 {
		t.Errorf("merged count = %d, want 2", hs.Count)
	}
}

func TestHook(t *testing.T) {
	var k Hook
	if start := k.Start(); !start.IsZero() {
		t.Error("uninstalled hook should return the zero time")
	}
	k.Done(time.Time{}) // no-op

	h := New(Options{}).Histogram("h")
	k.Set(h)
	start := k.Start()
	if start.IsZero() {
		t.Fatal("installed hook returned the zero time")
	}
	k.Done(start)
	if h.Count() != 1 {
		t.Errorf("hook observation count = %d, want 1", h.Count())
	}

	k.Set(nil)
	if !k.Start().IsZero() {
		t.Error("uninstalled hook should be disabled again")
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	defer Disable()
	Disable()
	if Default() != nil {
		t.Fatal("Default should be nil after Disable")
	}
	r := Enable()
	if r == nil || Default() != r {
		t.Fatal("Enable should install and return the registry")
	}
	if again := Enable(); again != r {
		t.Error("second Enable should return the same registry")
	}
	Disable()
	if Default() != nil {
		t.Error("Disable should clear the registry")
	}
}

func TestQuantile(t *testing.T) {
	hs := HistogramSnapshot{
		Count:  4,
		Bounds: []float64{1, 10},
		Counts: []uint64{2, 1, 1},
	}
	if q := hs.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %g, want 1", q)
	}
	if q := hs.Quantile(0.99); q != 10 {
		t.Errorf("p99 = %g, want 10 (largest finite bound)", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
}
