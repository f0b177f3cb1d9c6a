package detector

import "math"

// holtStep advances a set of Holt filters, one per lane in
// struct-of-arrays form, by one tick: lane i holds level[i] and
// trend[i] and takes x[i]. rec marks the lanes that take a value this
// tick and n counts each lane's values. A lane rec leaves out keeps its
// state; a lane's first value (n[i] == 0) sets level = x and trend = 0;
// every later one takes the Holt step
//
//	level = a*x + (1-a)*(prev+trend)
//	trend = b*(level-prev) + (1-b)*trend
//
// level, trend, rec and n are at least as long as x.
//
// The fleet fit's warm-up runs it with lanes = VMs over a store line
// (DESIGN.md, "The refit in the store's layout"). Both kernels round
// after every multiply and add, in this order, so every lane has the
// bits of holt, the scalar step.
func holtStep(level, trend, x []float64, rec []bool, n []int64, a, b float64) {
	if len(x) == 0 {
		return
	}
	_, _, _, _ = level[len(x)-1], trend[len(x)-1], rec[len(x)-1], n[len(x)-1]
	if laneKernel == laneAVX512 {
		holtStepAVX512(&level[0], &trend[0], &x[0], &rec[0], &n[0], len(x), a, b)
		return
	}
	holtStepGo(level, trend, x, rec, n, a, b)
}

// holtStepGo is holtStep in Go, the kernel on every machine.
func holtStepGo(level, trend, x []float64, rec []bool, n []int64, a, b float64) {
	for i, v := range x {
		if !rec[i] {
			continue
		}
		n[i]++
		if n[i] == 1 {
			level[i], trend[i] = v, 0
			continue
		}
		level[i], trend[i] = holt(level[i], trend[i], v, a, b)
	}
}

// holt is one lane's Holt step. The conversions round every product
// before its sum, so no build fuses them into an FMA the vector kernel
// does not use (the Go spec: an explicit conversion rounds). Go fixes
// no operand order for a commutative add, so where two NaNs of
// different payloads meet, which payload survives is the compiler's
// choice; every other result has one rounding and one set of bits.
func holt(prev, t, x, a, b float64) (level, trend float64) {
	level = float64((1-a)*(prev+t)) + float64(a*x)
	trend = float64(b*(level-prev)) + float64((1-b)*t)
	return level, trend
}

// transposeBlock is the fleet fit's blocked transpose: for each lane v
// of the block of lanes (at most FleetBlock) at offset off of each held
// tick's line, it writes the values of the ticks its keep bit marks, in
// tick order, to cols[v*stride:], and returns how many in cur[v]. Bit
// k%64 of keep[(k/64)*keepStride+off+v] marks tick k of lane v. Each
// column has room for every tick. The vector kernel takes eight ticks
// at a time; the ticks past the last eight are Go's.
func transposeBlock(cols []float64, stride int, lines [][]float64, keep []uint64, keepStride, off, lanes int, cur *[FleetBlock]int64) {
	for v := range cur {
		cur[v] = int64(v * stride)
	}
	k := 0
	if laneKernel == laneAVX512 {
		if groups := len(lines) / 8; groups > 0 {
			_ = cols[(lanes-1)*stride+len(lines)-1]
			_ = keep[(len(lines)-1)/64*keepStride+off+lanes-1]
			transposeAVX512(&cols[0], cur, &lines[0], groups, off, &keep[0], keepStride, lanes)
			k = 8 * groups
		}
	}
	for ; k < len(lines); k++ {
		kw := keep[k/64*keepStride+off : k/64*keepStride+off+lanes]
		for v, x := range lines[k][off : off+lanes] {
			// Every lane's value lands at its index, and the index moves
			// past only a kept one, so the loop does not branch.
			cols[cur[v]] = x
			cur[v] += int64(kw[v] >> (k % 64) & 1)
		}
	}
	for v := range cur {
		cur[v] -= int64(v * stride)
	}
}

// tickLineGo is an ewma fleet tick's pass over attribute line x (see
// EWMAFleet.Tick) in Go, lane by lane, with the scalar detector's own
// steps: holt, adaptStep, and Score's ends test (offset, heading,
// clampedSquare). sums and flags are the fleet's accumulators, acc
// lanes a run; with p.score unset they are not read.
func tickLineGo(x, level, trend, center, scale, scale0 []float64, n []int64, sums []float64, acc int, flags []uint8, p *tickParams) {
	var sum0, sumH, sumM []float64
	var notAway, notToward []uint8
	if p.score {
		sum0, sumH, sumM = sums[:len(x)], sums[acc:acc+len(x)], sums[2*acc:2*acc+len(x)]
		notAway, notToward = flags[:acc/FleetBlock], flags[acc/FleetBlock:]
	}
	level, trend, n = level[:len(x)], trend[:len(x)], n[:len(x)]
	center, scale, scale0 = center[:len(x)], scale[:len(x)], scale0[:len(x)]
	for i, v := range x {
		l, t := v, 0.0
		if n[i] != 0 {
			l, t = holt(level[i], trend[i], v, p.a, p.b)
		}
		level[i], trend[i] = l, t
		c, s := center[i], scale[i]
		if p.adapt {
			c, s = adaptStep(v, c, s, scale0[i], p.g)
			center[i], scale[i] = c, s
		}
		if !p.score {
			continue
		}
		d0, dH := offset(l, t, c, 0), offset(l, t, c, p.h)
		first, last := math.Abs(d0)/s-p.slack, math.Abs(dH)/s-p.slack
		if first <= 0 && last <= 0 {
			continue
		}
		bit := uint8(1) << (i % FleetBlock)
		notA, notT := heading(t, d0, dH)
		if notA {
			notAway[i/FleetBlock] |= bit
		}
		if notT {
			notToward[i/FleetBlock] |= bit
		}
		sum0[i] += clampedSquare(first)
		sumH[i] += clampedSquare(last)
		sumM[i] += clampedSquare(math.Abs(offset(l, t, c, p.hm))/s - p.slack)
	}
}

// laneKind names a kernel of the lane functions: holtStep,
// transposeBlock and the ewma fleet tick's line pass.
type laneKind uint8

const (
	laneGo     laneKind = iota // Go, on every machine
	laneAVX512                 // holtStepAVX512, transposeAVX512 and tickLineAVX512, where the CPU and OS support AVX-512F
)

func (k laneKind) String() string { return [...]string{"go", "avx512"}[k] }

// laneKernel is the kernel the lane functions run: decided once from
// CPUID, the vector one where it runs. Tests switch it to run both.
var laneKernel = bestLaneKernel()

func bestLaneKernel() laneKind {
	if laneAVX512Available {
		return laneAVX512
	}
	return laneGo
}
