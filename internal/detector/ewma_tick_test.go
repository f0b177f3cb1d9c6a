package detector

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prepare/internal/metrics"
)

// tickLines is one fleet tick's sample lines, one per attribute.
type tickLines [metrics.NumAttributes][]float64

func (l *tickLines) Column(a metrics.Attribute) []float64 { return l[a.Index()] }

// tickCase is one fleet the tick is checked on against per-VM detectors.
type tickCase struct {
	name  string
	lanes int
	ticks int
	seed  int64
	// score runs PREPARE's tick (Observe, then Score), else the reactive
	// one (Observe, then Current).
	score bool
	adapt float64 // EWMAOptions.Adapt
	// edge draws NaNs of two payloads, ±Inf, ±0 and subnormals among
	// the row values.
	edge bool
}

// tickCases covers one lane, a fleet that is not a whole register, one
// past a multiple of the lane stride, both schemes, a frozen baseline
// (Adapt < 0) and edge values.
var tickCases = []tickCase{
	{"one-lane", 1, 300, 1, true, 0, false},
	{"seven", 7, 300, 2, true, 0, true},
	{"fleet", 2001, 60, 3, true, 0, true},
	{"fleet-frozen", 2001, 40, 4, true, -1, false},
	{"reactive", 7, 200, 5, false, 0, true},
	{"reactive-fleet", 2001, 30, 6, false, 0, true},
	{"frozen-edge", 7, 200, 7, true, -1, true},
}

// tickEdges are the edge values rows draw.
var tickEdges = []float64{math.NaN(), math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, 5e-324}

// laneCenter is the level lane i's training rows sit at for attribute j.
func laneCenter(i, j int) float64 { return float64(10*(i%50) + j + 5) }

// tickRow writes lane i's row at tick k into row: each lane class (i%8)
// is a stream that drives the lane onto one of the settle paths most of
// the time: quiet, away (a ramp), toward (a decay back to the center), a
// mix of the two, a crossing (a wide oscillation), a plateau (a far
// constant, whose trend decays to 0), and two classes whose state the
// caller resets (setTickState).
func tickRow(rng *rand.Rand, row []float64, i, k int, edge bool) {
	for j := range row {
		c := laneCenter(i, j)
		var x float64
		switch i % 8 {
		case 0:
			x = c + 0.2*rng.NormFloat64()
		case 1:
			x = c + float64(k*(1+j%3))*0.4
		case 2, 3:
			x = c + 40*math.Exp(-float64(k%90)/15)
			if i%8 == 3 && j == 0 {
				x = c + float64(k%90)*0.5
			}
		case 4:
			x = c + 30*math.Sin(float64(k)/3+float64(j))
		case 5:
			x = c + 50
		default:
			x = c + 5*rng.NormFloat64()
		}
		if rng.Intn(50) == 0 {
			x = c + 20*rng.NormFloat64()
		}
		if edge && rng.Intn(60) == 0 {
			x = tickEdges[rng.Intn(len(tickEdges))]
		}
		row[j] = x
	}
}

// setTickState overwrites lane e's state with one drawn for its class:
// class 6 a state TestEWMAScoreMatchesEager's kinds cover (quiet,
// crossing, away, ulp-small trends that hold the window on a plateau,
// toward), class 7 (and one reset in nine of any other) a lane with no
// sample yet (n = 0). It writes into row the sample that keeps a drawn
// state on its projection for the tick.
func setTickState(rng *rand.Rand, e *EWMA, row []float64) {
	f := e.f
	if e.lane%8 == 7 || rng.Intn(9) == 0 {
		f.n[e.lane] = 0
		return
	}
	for j := range row {
		k := e.at(j)
		c, s := f.center[k], f.scale[k]
		l := c + s*rng.NormFloat64()*4
		away := math.Copysign(1, l-c)
		var t float64
		switch rng.Intn(6) {
		case 0:
			t = 0
		case 1:
			t = -(l - c) / float64(1+rng.Intn(30))
		case 2:
			t = away * s * rng.Float64()
		case 3:
			ulp := math.Nextafter(math.Abs(l), math.Inf(1)) - math.Abs(l)
			t = away * ulp * rng.Float64() / 64
		case 4:
			t = -(l - c) / (30 * (1 + rng.Float64()))
		case 5:
			l = c + away*1e3*s
		}
		f.level[k], f.trend[k] = l, t
		row[j] = l + t
	}
}

// copyLane copies lane src's state into lane dst.
func copyLane(dst, src *EWMA) {
	for j := range dst.f.dims {
		d, s := dst.at(j), src.at(j)
		dst.f.level[d], dst.f.trend[d] = src.f.level[s], src.f.trend[s]
		dst.f.center[d], dst.f.scale[d], dst.f.scale0[d] = src.f.center[s], src.f.scale[s], src.f.scale0[s]
	}
	dst.f.n[dst.lane] = src.f.n[src.lane]
}

// tickPaths counts the lane-ticks each settle path took.
type tickPaths struct{ quiet, toward, away, plateau, crossing, nan int }

// count classifies every lane of a scored tick by its sums and
// flags: no loud attribute, toward, away settled at the far end, away
// on a plateau, a crossing or a mix, and a NaN sum.
func (p *tickPaths) count(f *EWMAFleet) {
	for i := range f.dets {
		bit := uint8(1) << (i % FleetBlock)
		na := f.flags[i/FleetBlock]&bit != 0
		nt := f.flags[f.acc/FleetBlock+i/FleetBlock]&bit != 0
		s0, sH, sM := f.sums[i], f.sums[f.acc+i], f.sums[2*f.acc+i]
		switch {
		case math.IsNaN(s0) || math.IsNaN(sH):
			p.nan++
		case !na && !nt:
			p.quiet++
		case !nt:
			p.toward++
		case !na && math.Sqrt(sM) < math.Sqrt(sH):
			p.away++
		case !na:
			p.plateau++
		default:
			p.crossing++
		}
	}
}

// checkFleetTick runs c's fleet tick against per-VM detectors and
// requires, after every tick, every lane's decision (Abnormal, the
// Score's bits, LeadSteps) or, for the reactive tick, its Current
// verdict (whose score is NaN where the state holds one), and its state (level, trend, center, scale, scale0, a NaN's
// payload aside, and n) to equal the per-VM detector's. It returns the
// paths the lanes took.
func checkFleetTick(t *testing.T, c tickCase) tickPaths {
	t.Helper()
	const lookaheadS = 120
	opts := EWMAOptions{Adapt: c.adapt}
	rng := rand.New(rand.NewSource(c.seed))
	refs, lanes := make([]*EWMA, c.lanes), make([]*EWMA, c.lanes)
	train := make([][]float64, 60)
	for i := range refs {
		for r := range train {
			train[r] = make([]float64, metrics.NumAttributes)
			for j := range train[r] {
				train[r][j] = laneCenter(i, j) + rng.NormFloat64()
			}
		}
		refs[i], lanes[i] = NewEWMA(metrics.NumAttributes, opts), NewEWMA(metrics.NumAttributes, opts)
		if err := refs[i].Train(train, nil); err != nil {
			t.Fatal(err)
		}
		if err := lanes[i].Train(train, nil); err != nil {
			t.Fatal(err)
		}
	}
	f, err := JoinEWMA(lanes)
	if err != nil {
		t.Fatal(err)
	}
	var src tickLines
	for j := range src {
		src[j] = make([]float64, c.lanes)
	}
	row := make([]float64, metrics.NumAttributes)
	var paths tickPaths
	for k := 0; k < c.ticks; k++ {
		for i, e := range f.dets {
			tickRow(rng, row, i, k, c.edge)
			// Fleets of fewer than eight lanes have no class 6 or 7, so
			// any of their lanes is reset now and then.
			if (i%8 >= 6 || c.lanes < 8) && rng.Intn(3) == 0 {
				setTickState(rng, e, row)
				copyLane(refs[i], e)
			}
			for j, x := range row {
				src[j][i] = x
			}
		}
		if err := f.Tick(&src, lookaheadS, c.score); err != nil {
			t.Fatal(err)
		}
		if c.score {
			paths.count(f)
		}
		for i, ref := range refs {
			for j := range row {
				row[j] = src[j][i]
			}
			if err := ref.Observe(row); err != nil {
				t.Fatal(err)
			}
			checkLane(t, c, k, f.dets[i], ref, row)
		}
	}
	return paths
}

// checkLane compares lane got of a fleet with the per-VM detector want
// after tick k, scoring want as the tick scored got.
func checkLane(t *testing.T, c tickCase, k int, got, want *EWMA, row []float64) {
	t.Helper()
	where := func() string {
		return fmt.Sprintf("%s, %s, tick %d, lane %d", c.name, laneKernel, k, got.lane)
	}
	if c.score {
		wantDec, err := want.Score(120)
		if err != nil {
			t.Fatal(err)
		}
		dec := got.f.Decision(got.lane)
		if dec.Abnormal != wantDec.Abnormal || math.Float64bits(dec.Score) != math.Float64bits(wantDec.Score) ||
			dec.LeadSteps != wantDec.LeadSteps || !got.f.valid[got.lane] {
			t.Fatalf("%s: decision %+v (valid %v), per-VM %+v", where(), dec, got.f.valid[got.lane], wantDec)
		}
		if got.lane%97 == 0 {
			gv, gerr := got.Verdict()
			wv, werr := want.Verdict()
			if gerr != nil || werr != nil || fmt.Sprint(gv) != fmt.Sprint(wv) {
				t.Fatalf("%s: verdict %+v (%v), per-VM %+v (%v)", where(), gv, gerr, wv, werr)
			}
		}
	} else {
		if got.f.valid[got.lane] {
			t.Fatalf("%s: a reactive tick left a valid decision", where())
		}
		gv, gerr := got.Current(row)
		wv, werr := want.Current(row)
		if gerr != nil || werr != nil || !sameFloat(gv.Score, wv.Score) ||
			gv.Abnormal != wv.Abnormal || fmt.Sprint(gv.Strengths) != fmt.Sprint(wv.Strengths) {
			t.Fatalf("%s: current %+v (%v), per-VM %+v (%v)", where(), gv, gerr, wv, werr)
		}
	}
	for j := range got.f.dims {
		g, w := got.at(j), want.at(j)
		for _, v := range [][2][]float64{
			{got.f.level, want.f.level}, {got.f.trend, want.f.trend}, {got.f.center, want.f.center},
			{got.f.scale, want.f.scale}, {got.f.scale0, want.f.scale0},
		} {
			if !sameFloat(v[0][g], v[1][w]) {
				t.Fatalf("%s, attribute %d: state %v, per-VM %v", where(), j, got.snapshot(), want.snapshot())
			}
		}
	}
	if got.f.n[got.lane] != want.f.n[want.lane] {
		t.Fatalf("%s: n = %d, per-VM %d", where(), got.f.n[got.lane], want.f.n[want.lane])
	}
}

// TestFleetTickMatchesPerVM is the fleet tick's exactness oracle: under
// each lane kernel, on every tickCase, after every tick every lane's
// decision and state have the bits per-VM Observe and Score (reactive:
// Observe and Current) give, and the 2,001-lane scored fleet takes
// every settle path: quiet, toward, away, a plateau, a crossing or mix,
// and NaN.
func TestFleetTickMatchesPerVM(t *testing.T) {
	eachLaneKernel(t, func(t *testing.T) {
		for _, c := range tickCases {
			t.Run(c.name, func(t *testing.T) {
				p := checkFleetTick(t, c)
				if c.name == "fleet" && (p.quiet == 0 || p.toward == 0 || p.away == 0 || p.plateau == 0 || p.crossing == 0 || p.nan == 0) {
					t.Errorf("lane-ticks by path %+v: want every path taken", p)
				}
			})
		}
	})
}

// FuzzFleetTick runs checkFleetTick under every lane kernel on a fleet
// of 1 to 64 lanes from a seed, a tick count, the scheme, a frozen or
// adapting baseline and the edge-value switch. The seeds are
// tickCases, the 2,001-lane ones cut to 64 lanes.
func FuzzFleetTick(f *testing.F) {
	for _, c := range tickCases {
		f.Add(uint8(c.lanes), uint16(c.ticks), c.seed, c.score, c.adapt < 0, c.edge)
	}
	f.Fuzz(func(t *testing.T, lanes uint8, ticks uint16, seed int64, score, frozen, edge bool) {
		c := tickCase{name: "fuzz", lanes: 1 + int(lanes)%64, ticks: 1 + int(ticks)%200, seed: seed, score: score, edge: edge}
		if frozen {
			c.adapt = -1
		}
		for _, k := range laneKinds {
			if laneKindAvailable(k) {
				withLaneKernel(k, func() { checkFleetTick(t, c) })
			}
		}
	})
}

// newTickFleet trains n detectors on jittered rows and joins them into
// a fleet, and returns it with a source of ticks of rows near the
// baselines, a ramp on every 64th lane.
func newTickFleet(tb testing.TB, n int) (*EWMAFleet, func(k int) *tickLines) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	train := make([][]float64, 128)
	for r := range train {
		train[r] = make([]float64, metrics.NumAttributes)
	}
	dets := make([]*EWMA, n)
	for i := range dets {
		for r := range train {
			for j := range train[r] {
				train[r][j] = laneCenter(i, j) + rng.NormFloat64()
			}
		}
		dets[i] = NewEWMA(metrics.NumAttributes, EWMAOptions{})
		if err := dets[i].Train(train, nil); err != nil {
			tb.Fatal(err)
		}
	}
	f, err := JoinEWMA(dets)
	if err != nil {
		tb.Fatal(err)
	}
	const period = 64
	ticks := make([]tickLines, period)
	for k := range ticks {
		for j := range ticks[k] {
			ticks[k][j] = make([]float64, n)
			for i := range n {
				x := laneCenter(i, j) + rng.NormFloat64()
				if i%64 == 0 {
					x += float64(k)
				}
				ticks[k][j][i] = x
			}
		}
	}
	return f, func(k int) *tickLines { return &ticks[k%period] }
}

// TestFleetTickAllocationFree: a warm fleet tick, scored or not,
// allocates nothing, under each lane kernel.
func TestFleetTickAllocationFree(t *testing.T) {
	eachLaneKernel(t, func(t *testing.T) {
		f, src := newTickFleet(t, 300)
		k := 0
		for _, score := range []bool{true, false} {
			tick := func() {
				if err := f.Tick(src(k), 120, score); err != nil {
					t.Fatal(err)
				}
				k++
			}
			for range 128 {
				tick()
			}
			if allocs := testing.AllocsPerRun(64, tick); allocs != 0 {
				t.Errorf("warm fleet tick (score %v) allocates %v/op, want 0", score, allocs)
			}
		}
	})
}

// BenchmarkFleetTick times one scored tick of 2,000 VMs, the fleet_ewma
// world's size, under each lane kernel, and beside it "per-vm", the
// loop the fleet tick replaces: each VM's row gathered from the lines,
// then its detector's Observe and Score.
func BenchmarkFleetTick(b *testing.B) {
	const n = 2000
	for _, k := range laneKinds {
		if !laneKindAvailable(k) {
			continue
		}
		b.Run(k.String(), func(b *testing.B) {
			withLaneKernel(k, func() {
				f, src := newTickFleet(b, n)
				tick := 0
				for b.Loop() {
					if err := f.Tick(src(tick), 120, true); err != nil {
						b.Fatal(err)
					}
					tick++
				}
			})
		})
	}
	b.Run("per-vm", func(b *testing.B) {
		f, src := newTickFleet(b, n)
		dets := make([]*EWMA, n)
		for i, e := range f.dets {
			dets[i] = NewEWMA(metrics.NumAttributes, EWMAOptions{})
			copyLane(dets[i], e)
			dets[i].f.trained[0] = true
		}
		row := make([]float64, metrics.NumAttributes)
		tick := 0
		for b.Loop() {
			lines := src(tick)
			for i, e := range dets {
				for j := range row {
					row[j] = lines[j][i]
				}
				if err := e.Observe(row); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Score(120); err != nil {
					b.Fatal(err)
				}
			}
			tick++
		}
	})
}
