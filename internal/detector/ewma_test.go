package detector

import (
	"math"
	"testing"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
)

// eagerScore is EWMA.Score as it used to attribute: every step that
// improves the best score recomputes that step's clamped deviations, so
// the deviations of the final best step are in hand when the loop ends.
func eagerScore(e *EWMA, lookaheadS int64) (Decision, []float64) {
	steps := int(lookaheadS / e.opts.SamplingIntervalS)
	if steps < 1 {
		steps = 1
	}
	proj := make([]float64, len(e.level))
	z := make([]float64, len(e.level))
	best, bestStep := -1.0, 0
	for h := 0; h <= steps; h++ {
		for j := range e.level {
			proj[j] = e.level[j] + float64(h)*e.trend[j]
		}
		if s := e.deviation(proj, proj); s > best {
			best, bestStep = s, h
			for j := range e.level {
				proj[j] = e.level[j] + float64(h)*e.trend[j]
			}
			e.deviation(proj, z)
		}
	}
	return Decision{Abnormal: best > e.opts.Threshold, Score: best, LeadSteps: bestStep}, z
}

// TestEWMAVerdictMatchesEagerAttribution: Verdict's lazily recomputed
// attribution equals the eager ranking in bits, and Score the eager
// decision, on rising, falling and flat projections.
func TestEWMAVerdictMatchesEagerAttribution(t *testing.T) {
	const dims = 6
	for _, tc := range []struct {
		name  string
		slope float64 // per-sample drift of attributes 1 and 4
	}{
		{"rising", 3},
		{"falling", -2.5},
		{"flat", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEWMA(dims, EWMAOptions{})
			if err := e.Train(rampRows(dims, 60), nil); err != nil {
				t.Fatal(err)
			}
			row := make([]float64, dims)
			checked := 0
			for i := 0; i < 40; i++ {
				for j := range row {
					row[j] = 10 + float64((i*7+j)%5)*0.3
				}
				row[1] += tc.slope * float64(i)
				row[4] += 0.5 * tc.slope * float64(i)
				if err := e.Observe(row); err != nil {
					t.Fatal(err)
				}
				wantDec, wantZ := eagerScore(e, 120)
				dec, err := e.Score(120)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Abnormal != wantDec.Abnormal || dec.LeadSteps != wantDec.LeadSteps ||
					math.Float64bits(dec.Score) != math.Float64bits(wantDec.Score) {
					t.Fatalf("sample %d: Score = %+v, eager %+v", i, dec, wantDec)
				}
				v, err := e.Verdict()
				if err != nil {
					t.Fatal(err)
				}
				want := rankStrengths(wantZ)
				if len(v.Strengths) != len(want) {
					t.Fatalf("sample %d: %d strengths, eager %d", i, len(v.Strengths), len(want))
				}
				for k := range want {
					if v.Strengths[k].Attribute != want[k].Attribute ||
						math.Float64bits(v.Strengths[k].L) != math.Float64bits(want[k].L) {
						t.Fatalf("sample %d: strengths %+v, eager %+v", i, v.Strengths, want)
					}
				}
				checked += len(want)
			}
			if tc.slope != 0 && checked == 0 {
				t.Error("no attribute ever deviated: the projection exercised nothing")
			}
		})
	}
}

// ringSeries fills a bounded series of window samples, wrapped, with a
// jittered stream and a labeled abnormal span.
func ringSeries(tb testing.TB, window int) *metrics.Series {
	tb.Helper()
	s, err := metrics.NewBoundedSeries(window)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < window+window/2; i++ {
		sm := metrics.Sample{Time: simclock.Time(5 * i), Label: metrics.LabelNormal}
		for j := range sm.Values {
			sm.Values[j] = 20 + float64((i*3+j)%7) + 0.1*float64(j)
		}
		if i%40 >= 35 {
			sm.Values[2] *= 3
			sm.Label = metrics.LabelAbnormal
		}
		if err := s.Append(sm); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestEWMARefitAllocationFree: once warm, refitting a VM's EWMA from its
// series ring — RowsInto into kept buffers, then Train — allocates
// nothing, and neither does the per-tick Observe + Score.
func TestEWMARefitAllocationFree(t *testing.T) {
	series := ringSeries(t, 128)
	e := NewEWMA(metrics.NumAttributes, EWMAOptions{})
	backing, rows, labels := series.RowsInto(nil, nil, nil)
	if err := e.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	refit := func() {
		backing, rows, labels = series.RowsInto(backing, rows, labels)
		if err := e.Train(rows, labels); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, refit); allocs != 0 && !raceEnabled {
		t.Errorf("warm EWMA refit allocates %v/op, want 0", allocs)
	}
	row := rows[len(rows)-1]
	step := func() {
		if err := e.Observe(row); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Score(120); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("EWMA Observe+Score allocates %v/op, want 0", allocs)
	}
}

// BenchmarkEWMAScore measures one VM's per-tick Observe + Score over the
// control loop's default 120 s window (25 forecast steps) on a ramp, the
// case where every step improves the best score.
func BenchmarkEWMAScore(b *testing.B) {
	e := NewEWMA(metrics.NumAttributes, EWMAOptions{})
	if err := e.Train(rampRows(metrics.NumAttributes, 128), nil); err != nil {
		b.Fatal(err)
	}
	row := make([]float64, metrics.NumAttributes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range row {
			row[j] = 10 + float64(i%64)*0.5 + float64(j%3)
		}
		if err := e.Observe(row); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Score(120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEWMARefit measures one VM's periodic refit from a 128-sample
// series ring: RowsInto into kept buffers, then an in-place Train.
func BenchmarkEWMARefit(b *testing.B) {
	series := ringSeries(b, 128)
	e := NewEWMA(metrics.NumAttributes, EWMAOptions{})
	var (
		backing []float64
		rows    [][]float64
		labels  []metrics.Label
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backing, rows, labels = series.RowsInto(backing, rows, labels)
		if err := e.Train(rows, labels); err != nil {
			b.Fatal(err)
		}
	}
}
