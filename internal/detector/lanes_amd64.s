#include "textflag.h"

// func holtStepAVX512(level, trend, x *float64, rec *bool, n *int64, lanes int, a, b float64)
//
// Eight lanes a register. K1 holds the lanes that take a value: those
// in range and recorded; K2 the lanes among them taking their first
// (n == 0), which take level = x and trend = 0 in place of the step.
// Each multiply and add rounds on its own, with its operands in the
// order go1.24 compiles holt's (prev+trend, x*a + the (1-a) term, the
// (1-b) term + the b term), so where two NaNs meet the same payload
// survives; Go fixes no such order, so the tests hold a NaN to being a
// NaN.
TEXT ·holtStepAVX512(SB), NOSPLIT, $0-64
	MOVQ level+0(FP), DI
	MOVQ trend+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ rec+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ lanes+40(FP), CX
	VBROADCASTSD a+48(FP), Z0
	VBROADCASTSD b+56(FP), Z1
	MOVQ $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z2
	VSUBPD Z0, Z2, Z3 // 1-a
	VSUBPD Z1, Z2, Z4 // 1-b
	MOVQ $1, AX
	VPBROADCASTQ AX, Z5
	VPXORQ Z6, Z6, Z6

loop:
	TESTQ CX, CX
	JLE done
	MOVQ $0xff, AX
	CMPQ CX, $8
	JGE mask
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX

mask:
	KMOVW AX, K1
	VPMOVZXBQ.Z (R8), K1, Z7
	VPTESTMQ Z7, Z7, K1, K1
	VMOVDQU64.Z (R9), K1, Z8
	VPTESTNMQ Z8, Z8, K1, K2
	VPADDQ Z5, Z8, Z8
	VMOVDQU64 Z8, K1, (R9)
	VMOVUPD.Z (DX), K1, Z9  // x
	VMOVUPD.Z (DI), K1, Z10 // prev
	VMOVUPD.Z (SI), K1, Z11 // trend
	VADDPD Z11, Z10, Z12    // prev+trend
	VMULPD Z3, Z12, Z12     // (trend+prev)*(1-a)
	VMULPD Z0, Z9, Z13      // x*a
	VADDPD Z12, Z13, Z12    // level
	VSUBPD Z10, Z12, Z14    // level-prev
	VMULPD Z1, Z14, Z14     // (level-prev)*b
	VMULPD Z4, Z11, Z15     // trend*(1-b)
	VADDPD Z14, Z15, Z15    // trend
	VMOVAPD Z9, K2, Z12
	VMOVAPD Z6, K2, Z15
	VMOVUPD Z12, K1, (DI)
	VMOVUPD Z15, K1, (SI)
	ADDQ $8, R8
	ADDQ $64, R9
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $8, CX
	JMP loop

done:
	VZEROUPPER
	RET

// func tickLineAVX512(x, level, trend, center, scale, scale0 *float64, n *int64, sums *float64, acc int, flags *uint8, flagStride, lanes int, a, b, rate, rateAbs, slack, h, hm float64, adapt, score bool)
//
// Eight lanes a register, K1 the lanes in range, every operation
// tickLineGo's, rounded on its own, with its operands in the order of
// the scalar code:
//   - the Holt step is holtStepAVX512's, K2 the lanes whose first
//     sample this is (n == 0), which take level = x and trend = 0;
//   - adapt clamps d = x - center to ±3 scales with two compares and
//     blends (NaN compares false, so a NaN d stays, as in Go), the
//     upper bound blended last, as Go's if wins over its else-if; the
//     floor takes VMAXPD(floor, spread), which is spread where either
//     is NaN or both are zero, and then the floor where it is NaN: the
//     builtin max's NaN. spread is never -0 (its second term is at
//     least +0), so a zero floor of either sign yields +0, as max does;
//   - the ends test marks a lane loud (K3) where first or last is
//     above 0 or NaN (NLE_UQ); a register without a loud lane adds
//     nothing and skips the rest. It classifies each lane as heading does (K6 away,
//     K7 toward; a NaN compares false everywhere and so crosses), ORs
//     the loud lanes that are not away, and not toward, into the flag
//     bytes, and adds the clamped squares (VMAXPD(0, z): z where z is
//     NaN or a zero) into the three sums under K3.
TEXT ·tickLineAVX512(SB), NOSPLIT, $0-154
	MOVQ x+0(FP), DX
	MOVQ level+8(FP), DI
	MOVQ trend+16(FP), SI
	MOVQ center+24(FP), R8
	MOVQ scale+32(FP), R9
	MOVQ scale0+40(FP), R10
	MOVQ n+48(FP), R11
	MOVQ sums+56(FP), R12
	MOVQ acc+64(FP), R13
	SHLQ $3, R13
	MOVQ flags+72(FP), BX
	MOVQ flagStride+80(FP), R14
	MOVQ lanes+88(FP), CX
	VBROADCASTSD a+96(FP), Z0
	VBROADCASTSD b+104(FP), Z1
	MOVQ $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z2
	VSUBPD Z0, Z2, Z3 // 1-a
	VSUBPD Z1, Z2, Z4 // 1-b
	VBROADCASTSD rate+112(FP), Z5
	VSUBPD Z5, Z2, Z6 // 1-g
	VBROADCASTSD rateAbs+120(FP), Z7
	MOVQ $0x4008000000000000, AX
	VPBROADCASTQ AX, Z8 // 3
	MOVQ $0x3fd0000000000000, AX
	VPBROADCASTQ AX, Z9 // 0.25
	VBROADCASTSD slack+128(FP), Z10
	VBROADCASTSD h+136(FP), Z11
	VBROADCASTSD hm+144(FP), Z12
	VPXORQ Z13, Z13, Z13 // +0
	MOVQ $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z14 // |.|
	MOVQ $0x8000000000000000, AX
	VPBROADCASTQ AX, Z15 // sign

tloop:
	TESTQ CX, CX
	JLE tdone
	MOVQ $0xff, AX
	CMPQ CX, $8
	JGE tmask
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX

tmask:
	KMOVW AX, K1
	VMOVDQU64.Z (R11), K1, Z16
	VPTESTNMQ Z16, Z16, K1, K2 // first samples
	VMOVUPD.Z (DX), K1, Z16    // x
	VMOVUPD.Z (DI), K1, Z17    // prev
	VMOVUPD.Z (SI), K1, Z18    // trend
	VADDPD Z18, Z17, Z19       // prev+trend
	VMULPD Z3, Z19, Z19        // (trend+prev)*(1-a)
	VMULPD Z0, Z16, Z20        // x*a
	VADDPD Z19, Z20, Z19       // level
	VSUBPD Z17, Z19, Z21       // level-prev
	VMULPD Z1, Z21, Z21        // (level-prev)*b
	VMULPD Z4, Z18, Z22        // trend*(1-b)
	VADDPD Z21, Z22, Z18       // trend
	VMOVAPD Z16, K2, Z19
	VMOVAPD Z13, K2, Z18
	VMOVUPD Z19, K1, (DI)
	VMOVUPD Z18, K1, (SI)
	VMOVUPD.Z (R8), K1, Z20    // center
	VMOVUPD.Z (R9), K1, Z21    // scale
	MOVBLZX adapt+152(FP), AX
	TESTQ AX, AX
	JEQ tscore
	VMOVUPD.Z (R10), K1, Z22   // scale0
	VSUBPD Z20, Z16, Z23       // d = x-center
	VMULPD Z21, Z8, Z24        // lim = 3*scale
	VXORPD Z15, Z24, Z25       // -lim
	VCMPPD $0x1e, Z24, Z23, K3 // d > lim
	VCMPPD $0x11, Z25, Z23, K4 // d < -lim
	VMOVAPD Z25, K4, Z23
	VMOVAPD Z24, K3, Z23
	VMULPD Z23, Z5, Z24        // g*d
	VADDPD Z24, Z20, Z20       // center
	VANDPD Z14, Z23, Z23       // |d|
	VMULPD Z21, Z6, Z24        // (1-g)*scale
	VMULPD Z23, Z7, Z25        // g*1.2533*|d|
	VADDPD Z25, Z24, Z24       // spread
	VMULPD Z22, Z9, Z25        // floor = 0.25*scale0
	VMAXPD Z24, Z25, Z21       // scale
	VCMPPD $0x03, Z25, Z25, K3 // floor NaN
	VMOVAPD Z25, K3, Z21
	VMOVUPD Z20, K1, (R8)
	VMOVUPD Z21, K1, (R9)

tscore:
	MOVBLZX score+153(FP), AX
	TESTQ AX, AX
	JEQ tnext
	VMULPD Z18, Z13, Z22       // 0*trend
	VADDPD Z22, Z19, Z22
	VSUBPD Z20, Z22, Z22       // d0
	VMULPD Z18, Z11, Z23       // h*trend
	VADDPD Z23, Z19, Z23
	VSUBPD Z20, Z23, Z23       // dH
	VANDPD Z14, Z22, Z25
	VDIVPD Z21, Z25, Z25
	VSUBPD Z10, Z25, Z25       // first
	VANDPD Z14, Z23, Z26
	VDIVPD Z21, Z26, Z26
	VSUBPD Z10, Z26, Z26       // last
	VCMPPD $0x16, Z13, Z25, K1, K3 // first > 0 or NaN
	VCMPPD $0x16, Z13, Z26, K1, K4 // last > 0 or NaN
	KORW K4, K3, K3                // loud
	KORTESTW K3, K3
	JEQ tquiet                     // no lane adds anything
	VMULPD Z18, Z12, Z24       // (h-1)*trend
	VADDPD Z24, Z19, Z24
	VSUBPD Z20, Z24, Z24       // dM
	VANDPD Z14, Z24, Z27
	VDIVPD Z21, Z27, Z27
	VSUBPD Z10, Z27, Z27       // mid
	VCMPPD $0x1e, Z13, Z18, K4     // t > 0
	VCMPPD $0x11, Z13, Z18, K5     // t < 0
	VCMPPD $0x00, Z13, Z18, K6     // t == 0
	VCMPPD $0x1d, Z13, Z22, K4, K7 // t > 0 && d0 >= 0
	KORW K7, K6, K6
	VCMPPD $0x12, Z13, Z22, K5, K7 // t < 0 && d0 <= 0
	KORW K7, K6, K6                // away
	VCMPPD $0x1d, Z13, Z23, K5, K7 // t < 0 && dH >= 0
	VCMPPD $0x12, Z13, Z23, K4, K2 // t > 0 && dH <= 0
	KORW K2, K7, K7
	KANDNW K7, K6, K7              // toward: not away, and back toward the center
	KANDNW K3, K6, K4              // loud, not away
	KANDNW K3, K7, K5              // loud, not toward
	KMOVW K4, AX
	ORB AL, (BX)
	KMOVW K5, AX
	ORB AL, (BX)(R14*1)
	VMAXPD Z25, Z13, Z25
	VMULPD Z25, Z25, Z25
	VMAXPD Z26, Z13, Z26
	VMULPD Z26, Z26, Z26
	VMAXPD Z27, Z13, Z27
	VMULPD Z27, Z27, Z27
	VMOVUPD.Z (R12), K1, Z28
	VADDPD Z25, Z28, K3, Z28
	VMOVUPD Z28, K1, (R12)
	VMOVUPD.Z (R12)(R13*1), K1, Z28
	VADDPD Z26, Z28, K3, Z28
	VMOVUPD Z28, K1, (R12)(R13*1)
	VMOVUPD.Z (R12)(R13*2), K1, Z28
	VADDPD Z27, Z28, K3, Z28
	VMOVUPD Z28, K1, (R12)(R13*2)

tquiet:
	ADDQ $64, R12
	INCQ BX

tnext:
	ADDQ $64, DX
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $8, CX
	JMP tloop

tdone:
	VZEROUPPER
	RET

// func transposeAVX512(cols *float64, idx *[8]int64, lines *[]float64, groups, off int, keep *uint64, keepStride, lanes int)
//
// Each group of eight ticks loads the block's values from the eight
// lines (Z0-Z7, one tick each, under K3, the block's lanes), transposes
// them to one register per lane (Z8-Z15, eight ticks each) and, lane by
// lane, compresses the ticks whose keep bits are set to the front of a
// register, stores all eight at the lane's next index in cols and
// advances the index by the bits' count. Only the counted values
// matter: the rest lie past the index, where the next store or nothing
// reads them, and the group's last tick bounds every store.
TEXT ·transposeAVX512(SB), NOSPLIT, $0-64
	MOVQ lanes+56(FP), CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K3
	MOVQ cols+0(FP), DI
	MOVQ idx+8(FP), BX
	MOVQ lines+16(FP), SI
	MOVQ off+32(FP), R10
	SHLQ $3, R10
	MOVQ keep+40(FP), R8
	MOVQ keepStride+48(FP), R9
	SHLQ $3, R9
	MOVQ groups+24(FP), R13
	SHLQ $3, R13  // the ticks the groups cover
	XORQ R11, R11 // the group's first tick

group:
	CMPQ R11, R13
	JGE gdone
	MOVQ 0(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z0
	MOVQ 24(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z1
	MOVQ 48(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z2
	MOVQ 72(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z3
	MOVQ 96(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z4
	MOVQ 120(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z5
	MOVQ 144(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z6
	MOVQ 168(SI), DX
	VMOVUPD.Z (DX)(R10*1), K3, Z7
	ADDQ $192, SI

	// Pairs of ticks within each 128-bit lane, then pairs of those
	// across lanes, twice.
	VUNPCKLPD Z1, Z0, Z16
	VUNPCKHPD Z1, Z0, Z17
	VUNPCKLPD Z3, Z2, Z18
	VUNPCKHPD Z3, Z2, Z19
	VUNPCKLPD Z5, Z4, Z20
	VUNPCKHPD Z5, Z4, Z21
	VUNPCKLPD Z7, Z6, Z22
	VUNPCKHPD Z7, Z6, Z23
	VSHUFF64X2 $0x88, Z18, Z16, Z24
	VSHUFF64X2 $0xdd, Z18, Z16, Z25
	VSHUFF64X2 $0x88, Z19, Z17, Z26
	VSHUFF64X2 $0xdd, Z19, Z17, Z27
	VSHUFF64X2 $0x88, Z22, Z20, Z28
	VSHUFF64X2 $0xdd, Z22, Z20, Z29
	VSHUFF64X2 $0x88, Z23, Z21, Z30
	VSHUFF64X2 $0xdd, Z23, Z21, Z31
	VSHUFF64X2 $0x88, Z28, Z24, Z8
	VSHUFF64X2 $0xdd, Z28, Z24, Z12
	VSHUFF64X2 $0x88, Z29, Z25, Z10
	VSHUFF64X2 $0xdd, Z29, Z25, Z14
	VSHUFF64X2 $0x88, Z30, Z26, Z9
	VSHUFF64X2 $0xdd, Z30, Z26, Z13
	VSHUFF64X2 $0x88, Z31, Z27, Z11
	VSHUFF64X2 $0xdd, Z31, Z27, Z15

	// R12 points at lane 0's keep word holding the group's bits, CX is
	// their offset in it.
	MOVQ R11, CX
	SHRQ $6, CX
	IMULQ R9, CX
	LEAQ (R8)(CX*1), R12
	ADDQ R10, R12
	MOVQ R11, CX
	ANDQ $63, CX

#define LANE(v, z) \
	MOVQ (v*8)(R12), AX \
	SHRQ CX, AX \
	ANDQ $0xff, AX \
	KMOVW AX, K1 \
	POPCNTQ AX, AX \
	VCOMPRESSPD z, K1, Z16 \
	MOVQ (v*8)(BX), DX \
	VMOVUPD Z16, (DI)(DX*8) \
	ADDQ AX, DX \
	MOVQ DX, (v*8)(BX)

	LANE(0, Z8)
	MOVQ lanes+56(FP), DX
	CMPQ DX, $2
	JLT next
	LANE(1, Z9)
	MOVQ lanes+56(FP), DX
	CMPQ DX, $3
	JLT next
	LANE(2, Z10)
	MOVQ lanes+56(FP), DX
	CMPQ DX, $4
	JLT next
	LANE(3, Z11)
	MOVQ lanes+56(FP), DX
	CMPQ DX, $5
	JLT next
	LANE(4, Z12)
	MOVQ lanes+56(FP), DX
	CMPQ DX, $6
	JLT next
	LANE(5, Z13)
	MOVQ lanes+56(FP), DX
	CMPQ DX, $7
	JLT next
	LANE(6, Z14)
	MOVQ lanes+56(FP), DX
	CMPQ DX, $8
	JLT next
	LANE(7, Z15)

next:
	ADDQ $8, R11
	JMP group

gdone:
	VZEROUPPER
	RET
