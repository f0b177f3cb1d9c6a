#include "textflag.h"

// The 8-state TwoDepChain series kernel: every step of a chain's
// window in one call, four float64 lanes at a time. Each step
// propagates the combined-state distribution and writes its marginal;
// with a table it also projects the marginal through the table and
// picks the marginal's argmax. See twoDepSeries8Go in batch.go for the
// Go kernel this mirrors and must match bit for bit.
//
// Why the step is bit-identical. Each YMM lane holds one accumulator of
// twoDepStep8Go and performs exactly its sequence: it starts at +0,
// then for p = 0..7 in ascending order takes one IEEE multiply
// (dist[p*8+c] * rows[(c*8+p)*8+j]) followed by one IEEE add, and the
// marginal lanes add the finished columns in ascending c. VMULPD and
// VADDPD round each lane exactly like MULSD and ADDSD. There is no
// VFMADD here and there must never be: a fused multiply-add skips the
// rounding of the product and changes the low bits.
//
// The Go step skips terms whose dist entry is zero; this one does not.
// That is exact because rows are finite non-negative probabilities, so
// a skipped product is +0, and a + (+0) == a for every value an
// accumulator can hold (+0 or positive).
//
// Why the projection is bit-identical. Lane u of a step's projection is
// projectGo's accumulator e[u]: it starts at +0 and, for v = 0..7 in
// ascending order, adds the rounded product marg[v] * tab[v*8+u]. A
// term projectGo skips (marg[v] <= 0) is masked to +0 before the add
// instead: VCMPPD keeps the lanes where marg[v] > 0 or is NaN, exactly
// the terms projectGo keeps, and VANDPD clears the rest, so a masked
// product is +0 even when the table holds an infinity. Adding +0 leaves
// every accumulator unchanged except -0, and an accumulator that starts
// at +0 can never become -0 under round-to-nearest (x + y is -0 only
// when both are -0).
//
// Why the argmax is ArgMax's. ArgMax keeps the first index whose value
// beats every earlier one, starting from -1. When no marginal value is
// negative or NaN that is the lowest index equal to the maximum, which
// the kernel finds by a VMAXPD reduction, an equality compare and BSF
// (== treats -0 and +0 alike, as > does). When any value is negative or
// NaN the kernel runs ArgMax's scalar loop itself.

// func twoDepSeries8AVX2(rows, dist, next *float64, steps int, marg, proj, tab *float64, argmax *int32, pre *float64)
//
// rows is [512]float64 column-major, indexed [(c*8+p)*8+j]: the row of
// combined state (p, c), with column c's eight rows one contiguous
// 512-byte run. dist and next are [64]float64 indexed [p*8+c], and
// swap roles after every step. Step s writes
//
//	next[c*8+j]    = sum_p dist[p*8+c] * rows[(c*8+p)*8+j]
//	marg[s*8+j]    = sum_c next[c*8+j]
//	proj[s*8+u]    = sum_v marg[s*8+v] * tab[v*8+u]   (marg[s*8+v] > 0 or NaN)
//	argmax[s]      = ArgMax(marg[s*8 : s*8+8])
//
// and when proj is nil only the first two. Each of the first 22 steps
// also prefetches the next three cache lines from pre onwards, so that
// the 4 KB of rows the caller passes next are in L1 by the time it
// does.
TEXT ·twoDepSeries8AVX2(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), R8
	MOVQ dist+8(FP), R9
	MOVQ next+16(FP), R10
	MOVQ steps+24(FP), R11
	MOVQ marg+32(FP), BX
	MOVQ proj+40(FP), R12
	MOVQ tab+48(FP), R13
	MOVQ argmax+56(FP), AX
	MOVQ pre+64(FP), R14 // ABI0 code may clobber R14; the wrapper restores g
	VXORPD Y15, Y15, Y15 // +0 in every lane, for the compares
	TESTQ R11, R11
	JZ done

step:
	// Three more lines of the rows the caller runs next, in each of the
	// first 22 steps: 66 lines cover the 4 KB.
	MOVQ steps+24(FP), CX
	SUBQ R11, CX
	CMPQ CX, $22
	JGE sweep
	PREFETCHT0 (R14)
	PREFETCHT0 64(R14)
	PREFETCHT0 128(R14)
	ADDQ $192, R14

sweep:
	MOVQ R8, SI
	MOVQ R9, DI
	MOVQ R10, DX
	VXORPD Y4, Y4, Y4 // marg[0:4]
	VXORPD Y5, Y5, Y5 // marg[4:8]
	MOVQ $8, CX

column:
	VXORPD Y0, Y0, Y0 // next[c*8+0 : c*8+4]
	VXORPD Y1, Y1, Y1 // next[c*8+4 : c*8+8]

// One source-prev term: the row of (p, c) is p*64 bytes past the
// column's first row, its dist entry p*64 bytes past dist[c].
#define TERM(p) \
	VBROADCASTSD (p*64)(DI), Y2 \
	VMULPD (p*64)(SI), Y2, Y3   \
	VADDPD Y3, Y0, Y0           \
	VMULPD (p*64+32)(SI), Y2, Y3 \
	VADDPD Y3, Y1, Y1

	TERM(0)
	TERM(1)
	TERM(2)
	TERM(3)
	TERM(4)
	TERM(5)
	TERM(6)
	TERM(7)

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VADDPD Y0, Y4, Y4
	VADDPD Y1, Y5, Y5
	ADDQ $512, SI // next column's rows
	ADDQ $8, DI   // next column's dist entry
	ADDQ $64, DX
	DECQ CX
	JNZ column

	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	TESTQ R12, R12
	JZ advance

	VXORPD Y8, Y8, Y8 // proj[0:4]
	VXORPD Y9, Y9, Y9 // proj[4:8]

// One marginal term: marg[v] broadcast, the mask of lanes that keep it
// (marg[v] > 0 or NaN: predicate NLE_US, !(marg[v] <= 0)), and table
// row v, 64 bytes a row.
#define PROJ(v) \
	VBROADCASTSD (v*8)(BX), Y2    \
	VCMPPD $6, Y15, Y2, Y3        \
	VMULPD (v*64)(R13), Y2, Y6    \
	VANDPD Y3, Y6, Y6             \
	VADDPD Y6, Y8, Y8             \
	VMULPD (v*64+32)(R13), Y2, Y7 \
	VANDPD Y3, Y7, Y7             \
	VADDPD Y7, Y9, Y9

	PROJ(0)
	PROJ(1)
	PROJ(2)
	PROJ(3)
	PROJ(4)
	PROJ(5)
	PROJ(6)
	PROJ(7)

	VMOVUPD Y8, (R12)
	VMOVUPD Y9, 32(R12)

	// Any value negative or NaN (predicate NGE_US, !(m >= 0))? Then the
	// scalar loop decides.
	VCMPPD $9, Y15, Y4, Y6
	VCMPPD $9, Y15, Y5, Y7
	VORPD Y7, Y6, Y6
	VMOVMSKPD Y6, CX
	TESTL CX, CX
	JNZ scalarmax

	// The maximum in every lane, then the lowest index equal to it.
	VMAXPD Y5, Y4, Y6
	VPERM2F128 $1, Y6, Y6, Y7
	VMAXPD Y7, Y6, Y6
	VPERMILPD $5, Y6, Y7
	VMAXPD Y7, Y6, Y6
	VCMPPD $0, Y6, Y4, Y7 // EQ_OQ
	VMOVMSKPD Y7, CX
	VCMPPD $0, Y6, Y5, Y7
	VMOVMSKPD Y7, DX
	SHLL $4, DX
	ORL DX, CX
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
	ADDQ $64, R12
	ADDQ $4, AX

advance:
	ADDQ $64, BX
	XCHGQ R9, R10 // this step's next is the following step's dist
	DECQ R11
	JNZ step

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU has it (CPUID.7.0:EBX[5]) and the OS
// saves the YMM state: OSXSAVE and AVX in CPUID.1:ECX[27,28], and
// XGETBV(0) reporting XMM and YMM state enabled. A CPU that reports AVX
// has the XSAVE leaf 0xD, so leaf 7 is within range.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET
