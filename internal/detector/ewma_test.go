package detector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"prepare/internal/metrics"
)

// eagerScore is EWMA.Score as it used to attribute: every step that
// improves the best score recomputes that step's clamped deviations, so
// the deviations of the final best step are in hand when the loop ends.
func eagerScore(e *EWMA, lookaheadS int64) (Decision, []float64) {
	steps := int(lookaheadS / e.f.opts.SamplingIntervalS)
	if steps < 1 {
		steps = 1
	}
	proj := make([]float64, len(e.f.level))
	z := make([]float64, len(e.f.level))
	best, bestStep := -1.0, 0
	for h := 0; h <= steps; h++ {
		for j := range e.f.level {
			proj[j] = e.f.level[j] + float64(h)*e.f.trend[j]
		}
		if s := e.deviation(proj, proj); s > best {
			best, bestStep = s, h
			for j := range e.f.level {
				proj[j] = e.f.level[j] + float64(h)*e.f.trend[j]
			}
			e.deviation(proj, z)
		}
	}
	return Decision{Abnormal: best > e.f.opts.Threshold, Score: best, LeadSteps: bestStep}, z
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
				checked += checkScoreMatchesEager(t, e, 120)
			}
			if tc.slope != 0 && checked == 0 {
				t.Error("no attribute ever deviated: the projection exercised nothing")
			}
		})
	}
}

// ringSeries returns the rows and labels a window-sample history holds
// after window+window/2 samples of a jittered stream with a labeled
// abnormal span: its last window samples, oldest first.
func ringSeries(window int) ([][]float64, []metrics.Label) {
	n := window + window/2
	rows, labels := make([][]float64, n), make([]metrics.Label, n)
	for i := range rows {
		row := make([]float64, metrics.NumAttributes)
		for j := range row {
			row[j] = 20 + float64((i*3+j)%7) + 0.1*float64(j)
		}
		labels[i] = metrics.LabelNormal
		if i%40 >= 35 {
			row[2] *= 3
			labels[i] = metrics.LabelAbnormal
		}
		rows[i] = row
	}
	return rows[n-window:], labels[n-window:]
}

// TestEWMARefitAllocationFree: once warm, refitting a VM's EWMA from its
// history rows allocates nothing, and neither does the per-tick Observe
// + Score.
func TestEWMARefitAllocationFree(t *testing.T) {
	rows, labels := ringSeries(128)
	e := NewEWMA(metrics.NumAttributes, EWMAOptions{})
	if err := e.Train(rows, labels); err != nil {
		t.Fatal(err)
	}
	refit := func() {
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

// ewmaState builds a trained EWMA straight from per-attribute level,
// trend, center and scale, skipping the training replay. The slack is
// set as given, 0 included, which the options would default to 2.
func ewmaState(slack float64, level, trend, center, scale []float64) *EWMA {
	e := NewEWMA(len(level), EWMAOptions{})
	e.f.opts.Slack = slack
	copy(e.f.level, level)
	copy(e.f.trend, trend)
	copy(e.f.center, center)
	copy(e.f.scale, scale)
	copy(e.f.scale0, scale)
	e.f.trained[0] = true
	return e
}

// checkScoreMatchesEager requires Score and Verdict to reproduce the
// per-step oracle eagerScore bit for bit: the decision, the score's
// bits, the lead step and every ranked strength. It returns the number
// of strengths.
func checkScoreMatchesEager(t *testing.T, e *EWMA, lookaheadS int64) int {
	t.Helper()
	wantDec, wantZ := eagerScore(e, lookaheadS)
	dec, err := e.Score(lookaheadS)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Abnormal != wantDec.Abnormal || dec.LeadSteps != wantDec.LeadSteps ||
		math.Float64bits(dec.Score) != math.Float64bits(wantDec.Score) {
		t.Fatalf("lookahead %d s, level %v trend %v center %v scale %v slack %v: Score = %+v, eager %+v",
			lookaheadS, e.f.level, e.f.trend, e.f.center, e.f.scale, e.f.opts.Slack, dec, wantDec)
	}
	v, err := e.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	want := rankStrengths(wantZ)
	if len(v.Strengths) != len(want) {
		t.Fatalf("lookahead %d s: %d strengths, eager %d", lookaheadS, len(v.Strengths), len(want))
	}
	for k := range want {
		if v.Strengths[k].Attribute != want[k].Attribute ||
			math.Float64bits(v.Strengths[k].L) != math.Float64bits(want[k].L) {
			t.Fatalf("lookahead %d s: strengths %+v, eager %+v", lookaheadS, v.Strengths, want)
		}
	}
	return len(want)
}

// TestEWMAScoreMatchesEager drives Score, with its quiet-attribute skip,
// its monotone-window shortcuts and its step-parallel sweep, against the
// per-step oracle on random states built so that most attributes sit
// near the dead zone's edge: quiet ones, ones that cross the center
// mid-window, ones that leave the dead zone only at the far end, flat
// ones at the 1e-9 scale floor, ±0 trends, trends under the level's
// ulp that hold the projection on plateaus, and ones that move toward
// the center and end exactly on it. A third of the states move every
// attribute away from its center and a third every one toward it, so
// both shortcuts run often; one in five has up to 80 attributes, and
// the slack is 0 to 3. The test counts the states that took the
// shortcuts and the sweep (sweepTaken) and requires plenty of each.
func TestEWMAScoreMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fast, swept int
	for iter := 0; iter < 6000; iter++ {
		dims := 1 + rng.Intn(metrics.NumAttributes)
		if iter%5 == 0 {
			dims = 1 + rng.Intn(80)
		}
		lookaheadS := int64(rng.Intn(700))
		steps := float64(max(lookaheadS/5, 1))
		mode := iter % 3 // 0: any mix; 1: every attribute away; 2: every one toward
		level, trend := make([]float64, dims), make([]float64, dims)
		center, scale := make([]float64, dims), make([]float64, dims)
		for j := 0; j < dims; j++ {
			center[j] = math.Round(rng.NormFloat64()*1000) / 8
			scale[j] = math.Ldexp(1+rng.Float64(), rng.Intn(12)-4)
			if rng.Intn(10) == 0 {
				scale[j] = 1e-9
			}
			level[j] = center[j] + scale[j]*rng.NormFloat64()*3
			dev := level[j] - center[j]
			away := math.Copysign(1, dev)
			kind := rng.Intn(7)
			switch {
			case mode == 1 && (kind == 1 || kind >= 5):
				kind = 4
			case mode == 2 && kind < 5:
				kind = 5 + rng.Intn(2)
			}
			switch kind {
			case 0:
				trend[j] = 0
				if rng.Intn(2) == 0 {
					trend[j] = math.Copysign(0, -1)
				}
				if rng.Intn(4) == 0 {
					level[j], center[j] = math.Copysign(0, -dev), math.Copysign(0, dev)
				}
			case 1:
				trend[j] = -dev / float64(1+rng.Intn(30)) // crosses the center
			case 2:
				trend[j] = away * math.Abs(scale[j]*rng.NormFloat64()/8)
			case 3:
				// Under the level's ulp: the projection moves every few
				// steps and holds in between.
				ulp := math.Nextafter(math.Abs(level[j]), math.Inf(1)) - math.Abs(level[j])
				trend[j] = away * ulp * rng.Float64() * 2
			case 4:
				trend[j] = away * scale[j] * rng.Float64()
			case 5:
				// Toward the center, ending exactly on it at the far end:
				// every value is a short dyadic, so each operation is exact.
				r := math.Ldexp(1, -rng.Intn(7))
				level[j] = center[j] + away*r*steps
				trend[j] = -away * r
			case 6:
				// Toward the center without reaching it.
				trend[j] = -dev / (steps * (1 + rng.Float64()))
			}
		}
		e := ewmaState(float64(rng.Intn(4)), level, trend, center, scale)
		checkScoreMatchesEager(t, e, lookaheadS)
		if sweepTaken(e) {
			swept++
		} else {
			fast++
		}
	}
	if fast < 1000 || swept < 1000 {
		t.Errorf("%d states took a shortcut and %d the sweep, want at least 1000 each", fast, swept)
	}
}

// sweepTaken reports whether a detector has ever swept its window: the
// sweep is the only path that sizes the per-step sums.
func sweepTaken(e *EWMA) bool { return cap(e.sums) > 0 }

// TestEWMAScorePaths: a rising, a falling, a quiet and a converging
// state take the monotone shortcuts and leave the per-step sums
// unsized; a state that crosses its center, and one that mixes an away
// and a toward attribute, sweep, as does a rising state whose NaN
// slack makes its score NaN. Every one matches the oracle. On the
// top plateau two rising attributes' last two sums differ by an ulp of
// 1 while their square roots tie, so the first strict maximum lies
// before the window's end and the shortcut must bisect to find it.
func TestEWMAScorePaths(t *testing.T) {
	const steps = 24 // of the 120 s window
	for _, tc := range []struct {
		name                        string
		slack                       float64
		level, trend, center, scale []float64
		sweep                       bool
	}{
		{"rising", 2, []float64{12, 10}, []float64{0.5, 0}, []float64{10, 10}, []float64{1, 1}, false},
		{"falling", 2, []float64{8, 10}, []float64{-0.5, 0.01}, []float64{10, 10}, []float64{1, 1}, false},
		{"quiet", 2, []float64{10.5, 9.8}, []float64{0.01, -0.01}, []float64{10, 10}, []float64{1, 1}, false},
		{"toward", 2, []float64{22, 4}, []float64{-0.5, 0.25}, []float64{10, 10}, []float64{1, 1}, false},
		{"crossing", 2, []float64{14, 10}, []float64{-0.5, 0}, []float64{10, 10}, []float64{1, 1}, true},
		{"mixed", 2, []float64{13, 4}, []float64{0.5, 0.1}, []float64{10, 10}, []float64{1, 1}, true},
		{"top plateau", 0, []float64{1, 0}, []float64{0, 0x1.cp-30}, []float64{0, 0}, []float64{1, 1}, false},
		{"NaN slack", math.NaN(), []float64{12, 10}, []float64{0.5, 0}, []float64{10, 10}, []float64{1, 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := ewmaState(tc.slack, tc.level, tc.trend, tc.center, tc.scale)
			checkScoreMatchesEager(t, e, 120)
			if got := sweepTaken(e); got != tc.sweep {
				t.Errorf("swept %v, want %v", got, tc.sweep)
			}
			if tc.name != "top plateau" {
				return
			}
			all := []int{0, 1}
			top, below := e.stepSum(steps, all), e.stepSum(steps-1, all)
			if top == below || math.Sqrt(top) != math.Sqrt(below) || e.f.dec[0].LeadSteps >= steps-1 {
				t.Errorf("sums %x and %x, lead step %d: want distinct sums with tied roots and a plateau that starts before step %d",
					below, top, e.f.dec[0].LeadSteps, steps-1)
			}
		})
	}
}

// FuzzEWMAScore checks Score and Verdict against the per-step oracle on
// arbitrary states. attrs packs 32 bytes per attribute: level, trend,
// center and scale as little-endian float64 bits. Inputs outside the
// detector's domain are skipped: non-finite values, a scale that is not
// above 0 (every trained, adapted or loaded state has one), a negative
// slack.
func FuzzEWMAScore(f *testing.F) {
	pack := func(attrs ...[4]float64) []byte {
		b := make([]byte, 0, 32*len(attrs))
		for _, a := range attrs {
			for _, v := range a {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		return b
	}
	// Every attribute quiet.
	f.Add(pack([4]float64{10, 0.01, 10.5, 1}, [4]float64{3, -0.001, 2.9, 0.5}, [4]float64{7, 0, 7, 2}), 2.0, int64(120))
	// Quiet at h = 0, crossing the center at h = 2 and loud at the far
	// end: a skip that tests only h = 0 drops it.
	f.Add(pack([4]float64{9, 0.5, 10, 1}, [4]float64{10, 0, 10, 1}), 2.0, int64(120))
	// Loud at h = 0, dipping through the center and loud again.
	f.Add(pack([4]float64{0, 1, 12, 1}, [4]float64{5, 0, 5.1, 1}), 2.0, int64(120))
	// Trend 0 throughout, one attribute outside the dead zone.
	f.Add(pack([4]float64{4, 0, 1, 1}, [4]float64{1, 0, 1, 1}), 2.0, int64(120))
	// Scale at the 1e-9 floor of a flat column.
	f.Add(pack([4]float64{5, 1e-10, 5, 1e-9}, [4]float64{5, 0, 5, 1e-9}, [4]float64{5 + 3e-9, 0, 5, 1e-9}), 2.0, int64(120))
	// Lookaheads of 0, 7, 120 and 600 s on a mixed state.
	mixed := pack([4]float64{9, 0.5, 10, 1}, [4]float64{10, 0.01, 10.5, 1}, [4]float64{0, 1, 12, 1})
	for _, lookahead := range []int64{0, 7, 120, 600} {
		f.Add(mixed, 2.0, lookahead)
	}
	// A top plateau: the last two steps' sums differ by an ulp of 1 and
	// their square roots tie (TestEWMAScorePaths).
	f.Add(pack([4]float64{1, 0, 0, 1}, [4]float64{0, 0x1.cp-30, 0, 1}), 0.0, int64(120))
	// Trends of +0 and -0, with level and center of either sign of 0.
	f.Add(pack([4]float64{4, 0, 1, 1}, [4]float64{-4, math.Copysign(0, -1), 1, 1},
		[4]float64{math.Copysign(0, -1), math.Copysign(0, -1), 0, 1e-9}), 0.0, int64(120))
	// Toward the center, ending exactly on it at h = 24 from either side.
	f.Add(pack([4]float64{22, -0.5, 10, 1}, [4]float64{-2, 0.5, 10, 1}), 2.0, int64(120))
	// Slack 0, rising and falling away from the center.
	f.Add(pack([4]float64{12, 0.5, 10, 1}, [4]float64{8, -0.5, 10, 1}), 0.0, int64(120))
	// 80 attributes, every one rising: wider than any fixed-width mask.
	wide := make([][4]float64, 80)
	for j := range wide {
		wide[j] = [4]float64{12 + float64(j%5), 0.25, 10, 1}
	}
	f.Add(pack(wide...), 2.0, int64(120))
	f.Fuzz(func(t *testing.T, attrs []byte, slack float64, lookaheadS int64) {
		dims := len(attrs) / 32
		if dims == 0 || dims > 128 || !(slack >= 0) || math.IsInf(slack, 1) {
			return
		}
		lookaheadS %= 3600
		if lookaheadS < 0 {
			lookaheadS = -lookaheadS
		}
		var cols [4][]float64
		for k := range cols {
			cols[k] = make([]float64, dims)
		}
		for j := 0; j < dims; j++ {
			for k := range cols {
				v := math.Float64frombits(binary.LittleEndian.Uint64(attrs[32*j+8*k:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return
				}
				cols[k][j] = v
			}
			if !(cols[3][j] > 0) {
				return
			}
		}
		checkScoreMatchesEager(t, ewmaState(slack, cols[0], cols[1], cols[2], cols[3]), lookaheadS)
	})
}

// TestEWMAScoreAllocs pins Score at zero allocations: at the control
// loop's default 120 s window (25 forecast steps), and at a 600 s
// window once the per-step buffer has grown to it.
func TestEWMAScoreAllocs(t *testing.T) {
	e := NewEWMA(metrics.NumAttributes, EWMAOptions{})
	if err := e.Train(rampRows(metrics.NumAttributes, 128), nil); err != nil {
		t.Fatal(err)
	}
	for _, lookaheadS := range []int64{120, 600} {
		if _, err := e.Score(lookaheadS); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.Score(lookaheadS); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Score(%d) allocates %v/op, want 0", lookaheadS, allocs)
		}
	}
}

// BenchmarkEWMAScore measures one VM's per-tick Observe + Score over the
// control loop's default 120 s window (25 forecast steps). On a ramp
// every attribute leaves the dead zone, moving away from its center,
// and every step improves the best score; quiet is a steady stream
// inside the dead zone, the common case, where Score skips every
// attribute. mixed scores one fixed state, without Observe, in which
// one attribute rises away from its center and one crosses it, so
// every Score sweeps the window.
func BenchmarkEWMAScore(b *testing.B) {
	train := func(b *testing.B) *EWMA {
		e := NewEWMA(metrics.NumAttributes, EWMAOptions{})
		if err := e.Train(rampRows(metrics.NumAttributes, 128), nil); err != nil {
			b.Fatal(err)
		}
		return e
	}
	for _, tc := range []struct {
		name string
		row  func(i, j int) float64
	}{
		{"ramp", func(i, j int) float64 { return 10 + float64(i%64)*0.5 + float64(j%3) }},
		{"quiet", func(i, j int) float64 { return 10 + float64((i+j)%3) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := train(b)
			row := make([]float64, metrics.NumAttributes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range row {
					row[j] = tc.row(i, j)
				}
				if err := e.Observe(row); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Score(120); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("mixed", func(b *testing.B) {
		e := train(b)
		e.f.level[0], e.f.trend[0] = e.f.center[0]+4*e.f.scale[0], e.f.scale[0]/4
		e.f.level[1], e.f.trend[1] = e.f.center[1]+4*e.f.scale[1], -e.f.scale[1]/2
		if _, err := e.Score(120); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Score(120); err != nil {
				b.Fatal(err)
			}
		}
		if !sweepTaken(e) {
			b.Fatal("the mixed state did not sweep")
		}
	})
}

// checkLoadRejects saves d as JSON, then for each field and each scale
// value no training produces (0, -0, negative) writes the value into
// element 0 of that field and requires load, handed the edited JSON, to
// refuse the snapshot with an error and no detector. The untouched
// snapshot must load.
func checkLoadRejects(t *testing.T, d Detector, load func([]byte) (loaded bool, err error), fields ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := load(buf.Bytes()); err != nil {
		t.Fatalf("trained snapshot refused: %v", err)
	}
	for _, field := range fields {
		for _, bad := range []float64{0, math.Copysign(0, -1), -1} {
			var snap map[string]any
			if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
				t.Fatal(err)
			}
			snap[field].([]any)[0] = bad
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if loaded, err := load(data); err == nil || loaded {
				t.Errorf("%s[0] = %v: load returned a detector %v, error %v", field, bad, loaded, err)
			}
		}
	}
	return buf.Bytes()
}

// TestLoadEWMARejectsBadSnapshots: a snapshot whose scale or scale0 is
// 0, -0 or negative is refused by DecodeEWMA, and so is one whose center,
// level, trend, scale or scale0 is NaN or ±Inf. JSON carries no NaN or
// Inf (a number past float64's range fails to decode), so those are
// checked on the decoded snapshot.
func TestLoadEWMARejectsBadSnapshots(t *testing.T) {
	const dims = 4
	e := NewEWMA(dims, EWMAOptions{})
	if err := e.Train(rampRows(dims, 50), nil); err != nil {
		t.Fatal(err)
	}
	saved := checkLoadRejects(t, e, func(b []byte) (bool, error) {
		var snap ewmaSnapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return false, err
		}
		bin, err := snap.appendBinary(nil)
		if err != nil {
			return false, err
		}
		d, err := DecodeEWMA(bin)
		return d != nil, err
	}, "scale", "scale0")
	for _, field := range []string{"center", "level", "trend", "scale", "scale0"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var snap ewmaSnapshot
			if err := json.Unmarshal(saved, &snap); err != nil {
				t.Fatal(err)
			}
			map[string][]float64{
				"center": snap.Center, "level": snap.Level, "trend": snap.Trend,
				"scale": snap.Scale, "scale0": snap.Scale0,
			}[field][1] = v
			if err := snap.check(); err == nil {
				t.Errorf("%s[1] = %v passes the snapshot check", field, v)
			}
		}
	}
}

// BenchmarkEWMARefit measures one VM's periodic in-place refit from a
// 128-sample history.
func BenchmarkEWMARefit(b *testing.B) {
	rows, labels := ringSeries(128)
	e := NewEWMA(metrics.NumAttributes, EWMAOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Train(rows, labels); err != nil {
			b.Fatal(err)
		}
	}
}
