#include "textflag.h"

// func holtStepAVX512(level, trend, x *float64, rec *bool, n *int64, lanes int, a, b float64)
//
// Eight lanes a register. K1 holds the lanes that take a value: those
// in range and, with rec, recorded; K2 the lanes among them taking
// their first (n == 0), which take level = x and trend = 0 in place of
// the step. Each multiply and add rounds on its own, with its operands
// in the order go1.24 compiles holt's (prev+trend, x*a + the (1-a)
// term, the (1-b) term + the b term), so where two NaNs meet the same
// payload survives; Go fixes no such order, so the tests hold a NaN to
// being a NaN.
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
	KXORW K2, K2, K2

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
	TESTQ R8, R8
	JEQ step
	VPMOVZXBQ.Z (R8), K1, Z7
	VPTESTMQ Z7, Z7, K1, K1
	VMOVDQU64.Z (R9), K1, Z8
	VPTESTNMQ Z8, Z8, K1, K2
	VPADDQ Z5, Z8, Z8
	VMOVDQU64 Z8, K1, (R9)
	ADDQ $8, R8
	ADDQ $64, R9

step:
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
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $8, CX
	JMP loop

done:
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
