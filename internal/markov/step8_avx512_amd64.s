#include "textflag.h"

// The 512-bit 8-state TwoDepChain series kernel, the one CPUID picks
// where the CPU reports AVX-512F and the OS saves the opmask and ZMM
// state. It keeps twoDepSeries8AVX2's contract with one ZMM register
// where that kernel has two YMM registers (its sweep order and when it
// projects are described below), and the header of step8_amd64.s says
// why both produce twoDepSeries8Go's float64s bit for bit: every lane
// performs one Go accumulator's exact sequence of rounded multiplies
// and adds (no FMA), the start-state entry's first two steps drop only
// terms that are provably zero for finite rows, the projection masks
// exactly the terms projectGo skips, and the argmax is ArgMax's.
// Here the projection's mask is an opmask: VCMPPD into K1 keeps the
// lanes where marg[v] > 0 or is NaN and VMULPD.Z zeroes the product
// elsewhere, the same set VCMPPD and VANDPD keep in the AVX2 kernel.

// func twoDepSeries8AVX512(rows, dist, next *float64, start, steps int, marg, proj, tab *float64, argmax *int32, pre *float64)
//
// twoDepSeries8AVX2's contract (step8_amd64.s), eight lanes a
// register: ZMM lane j of a column's accumulator is next bin j, and
// lane u of a projection is table lane u.
//
// The dense sweep runs the eight columns side by side, column c's
// accumulator in Z(16+c): round p adds source-prev p's term to every
// column, so each accumulator still takes its terms in ascending p
// while eight independent add chains fill the two 512-bit ports. The
// projections and argmaxes run after the last step, one step's
// marginal at a time from marg: the same inputs and the same operation
// sequence per lane, kept off the steps' own dependency chains.
TEXT ·twoDepSeries8AVX512(SB), NOSPLIT, $0-80
	MOVQ rows+0(FP), R8
	MOVQ dist+8(FP), R9
	MOVQ next+16(FP), R10
	MOVQ steps+32(FP), R11
	MOVQ marg+40(FP), BX
	MOVQ pre+72(FP), R14 // ABI0 code may clobber R14; the wrapper restores g
	VPXORQ Z15, Z15, Z15 // +0 in every lane, for the adds and compares
	TESTQ R11, R11
	JZ done

step:
	// Three more lines of the rows the caller runs next, in each of the
	// first 22 steps: 66 lines cover the 4 KB.
	MOVQ steps+32(FP), CX
	SUBQ R11, CX // this step's index
	CMPQ CX, $22
	JGE pick
	PREFETCHT0 (R14)
	PREFETCHT0 64(R14)
	PREFETCHT0 128(R14)
	ADDQ $192, R14

pick:
	CMPQ CX, $2
	JGE sweep
	MOVQ start+24(FP), DX
	TESTQ DX, DX
	JL sweep
	MOVQ DX, SI
	ANDQ $7, SI  // cur
	SHLQ $6, SI  // cur*64
	TESTQ CX, CX
	JNZ second

	// Step 1 from the start state: next is zero but for column cur,
	// which is +0 + row (cur, prev), and so is the marginal.
	SHRQ $3, DX  // prev
	SHLQ $6, DX  // prev*64
	LEAQ (R8)(SI*8), DI // rows of column cur
	VMOVUPD Z15, (R10)
	VMOVUPD Z15, 64(R10)
	VMOVUPD Z15, 128(R10)
	VMOVUPD Z15, 192(R10)
	VMOVUPD Z15, 256(R10)
	VMOVUPD Z15, 320(R10)
	VMOVUPD Z15, 384(R10)
	VMOVUPD Z15, 448(R10)
	VADDPD (DI)(DX*1), Z15, Z4
	VMOVUPD Z4, (R10)(SI*1)
	JMP stored

second:
	// Step 2: step 1's only non-zero source row is cur, so cell
	// next[c*8+j] is +0 + dist[cur*8+c] * row (c, cur)[j].
	LEAQ (R9)(SI*1), DI // &dist[cur*8]
	ADDQ R8, SI         // row (0, cur); row (c, cur) is c*512 bytes on
	VPXORQ Z4, Z4, Z4

// Column c of step 2: its single term, its store, its marginal add.
#define ONEZ(c) \
	VBROADCASTSD (c*8)(DI), Z2   \
	VMULPD (c*512)(SI), Z2, Z0   \
	VADDPD Z0, Z15, Z0           \
	VMOVUPD Z0, (c*64)(R10)      \
	VADDPD Z0, Z4, Z4

	ONEZ(0)
	ONEZ(1)
	ONEZ(2)
	ONEZ(3)
	ONEZ(4)
	ONEZ(5)
	ONEZ(6)
	ONEZ(7)
	JMP stored

// Source-prev p's term of column c: dist[p*8+c] times the row of
// (p, c), added to the column's accumulator.
#define TERMZ(p, c, acc) \
	VBROADCASTSD (p*64+c*8)(R9), Z1 \
	VMULPD (c*512+p*64)(R8), Z1, Z2 \
	VADDPD Z2, acc, acc

// Round p of the dense sweep: source-prev p's term of every column.
#define ROUNDZ(p) \
	TERMZ(p, 0, Z16) \
	TERMZ(p, 1, Z17) \
	TERMZ(p, 2, Z18) \
	TERMZ(p, 3, Z19) \
	TERMZ(p, 4, Z20) \
	TERMZ(p, 5, Z21) \
	TERMZ(p, 6, Z22) \
	TERMZ(p, 7, Z23)

sweep:
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	ROUNDZ(0)
	ROUNDZ(1)
	ROUNDZ(2)
	ROUNDZ(3)
	ROUNDZ(4)
	ROUNDZ(5)
	ROUNDZ(6)
	ROUNDZ(7)
	VMOVUPD Z16, (R10)
	VMOVUPD Z17, 64(R10)
	VMOVUPD Z18, 128(R10)
	VMOVUPD Z19, 192(R10)
	VMOVUPD Z20, 256(R10)
	VMOVUPD Z21, 320(R10)
	VMOVUPD Z22, 384(R10)
	VMOVUPD Z23, 448(R10)
	VPXORQ Z4, Z4, Z4 // marg[0:8], the columns in ascending c
	VADDPD Z16, Z4, Z4
	VADDPD Z17, Z4, Z4
	VADDPD Z18, Z4, Z4
	VADDPD Z19, Z4, Z4
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z4, Z4
	VADDPD Z22, Z4, Z4
	VADDPD Z23, Z4, Z4

stored:
	VMOVUPD Z4, (BX)
	ADDQ $64, BX
	XCHGQ R9, R10 // this step's next is the following step's dist
	DECQ R11
	JNZ step

	MOVQ proj+48(FP), R12
	TESTQ R12, R12
	JZ done
	MOVQ marg+40(FP), BX
	MOVQ tab+56(FP), R13
	MOVQ argmax+64(FP), AX
	MOVQ steps+32(FP), R11

project:
	VMOVUPD (BX), Z4
	VPXORQ Z8, Z8, Z8 // proj[0:8]

// One marginal term: marg[v] broadcast, the opmask of lanes that keep
// it (marg[v] > 0 or NaN: predicate NLE_US, !(marg[v] <= 0)), and the
// product with table row v, 64 bytes a row, zeroed outside the mask.
#define PROJZ(v) \
	VBROADCASTSD (v*8)(BX), Z2       \
	VCMPPD $6, Z15, Z2, K1           \
	VMULPD.Z (v*64)(R13), Z2, K1, Z6 \
	VADDPD Z6, Z8, Z8

	PROJZ(0)
	PROJZ(1)
	PROJZ(2)
	PROJZ(3)
	PROJZ(4)
	PROJZ(5)
	PROJZ(6)
	PROJZ(7)

	VMOVUPD Z8, (R12)

	// Any value negative or NaN (predicate NGE_US, !(m >= 0))? Then the
	// scalar loop decides.
	VCMPPD $9, Z15, Z4, K2
	KMOVW K2, CX
	TESTL CX, CX
	JNZ scalarmax

	// The maximum in every lane, then the lowest index equal to it.
	VEXTRACTF64X4 $1, Z4, Y6
	VMAXPD Y6, Y4, Y6
	VPERM2F128 $1, Y6, Y6, Y7
	VMAXPD Y7, Y6, Y6
	VPERMILPD $5, Y6, Y7
	VMAXPD Y7, Y6, Y6
	VBROADCASTSD X6, Z6
	VCMPPD $0, Z6, Z4, K2 // EQ_OQ
	KMOVW K2, CX
	BSFL CX, CX
	JMP argdone

scalarmax:
	// ArgMax: best = -1, index 0; take v when marg[v] > best (an
	// unordered compare is not above, so NaN never wins).
	MOVQ $0xbff0000000000000, DX
	VMOVQ DX, X6
	XORL CX, CX
	XORL SI, SI

scan:
	VMOVSD (BX)(SI*8), X7
	VUCOMISD X6, X7
	JLS scannext
	VMOVAPD X7, X6
	MOVL SI, CX

scannext:
	INCL SI
	CMPL SI, $8
	JLT scan

argdone:
	MOVL CX, (AX)
	ADDQ $64, BX
	ADDQ $64, R12
	ADDQ $4, AX
	DECQ R11
	JNZ project

done:
	VZEROUPPER
	RET
