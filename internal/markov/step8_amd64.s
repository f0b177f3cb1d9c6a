#include "textflag.h"

// The 8-state TwoDepChain series kernels: every step of a chain's
// window in one call. Each step propagates the combined-state
// distribution and writes its marginal; with a table it also projects
// the marginal through the table and picks the marginal's argmax. See
// twoDepSeries8Go in batch.go for the Go kernel both mirror and must
// match bit for bit. twoDepSeries8AVX2, here, holds one output column's
// eight next-bin accumulators in two YMM registers, lanes 0-3 and 4-7;
// twoDepSeries8AVX512, in step8_avx512_amd64.s, holds them in one ZMM
// register, lane j for next bin j. Everything below holds for both.
//
// Why the step is bit-identical. Each lane holds one accumulator of
// twoDepStep8Go and performs exactly its sequence: it starts at +0,
// then for p = 0..7 in ascending order takes one IEEE multiply
// (dist[p*8+c] * rows[(c*8+p)*8+j]) followed by one IEEE add, and the
// marginal lanes add the finished columns in ascending c. VMULPD and
// VADDPD round each lane exactly like MULSD and ADDSD. There is no
// VFMADD here and there must never be: a fused multiply-add skips the
// rounding of the product and changes the low bits.
//
// The Go step skips terms whose dist entry is zero; the dense sweep
// does not. That is exact because rows are finite, so a skipped product
// is +0 or -0, and a + (±0) == a for every value an accumulator can
// hold: an accumulator starts at +0 and can never become -0 under
// round-to-nearest (x + y is -0 only when both are -0).
//
// The start-state entry (start >= 0). The window path starts from the
// chain's own state, the one-hot distribution with all mass on
// start = prev*8+cur, and passes start instead of that dist. For finite
// rows its first two steps have one non-zero weight per cell at most,
// which makes every dense-sweep term but one a ±0 that the argument
// above shows changes nothing:
//
//   - Step 1: every cell outside column cur has only zero weights, so
//     it is +0, and cell next[cur*8+j] is +0 + 1*r = +0 + r, r being
//     row (cur, prev)'s j-th entry (1*r == r). The kernel adds the row
//     to +0 and stores zeros elsewhere. Its marginal is that column:
//     +0 added to it, before or after, leaves it unchanged.
//   - Step 2: step 1's only non-zero source row is p = cur, so cell
//     next[c*8+j] is +0 + d*r with d = dist[cur*8+c] and r row
//     (c, cur)'s j-th entry: one multiply and one add a cell. The add
//     of +0 stays: it is what turns a -0 product (d or r negative, the
//     other zero) into the +0 the Go step produces by skipping d == 0
//     or by adding. Without it the step is exact only for rows with no
//     negative entry.
//
// From step 3 the kernel runs the dense sweep. Production rows are
// Laplace-smoothed probabilities (smoothRow, smoothBackoff), finite by
// construction; that is the start-state entry's contract. A row holding
// an infinity or NaN must take the dense entry, whose sweep the Go step
// already matches for every finite dist. The first add of a dense
// sweep, +0 + x, is not replaced by a move: that is exact only when no
// product is -0, which signed rows produce.
//
// Why the projection is bit-identical. Lane u of a step's projection is
// projectGo's accumulator e[u]: it starts at +0 and, for v = 0..7 in
// ascending order, adds the rounded product marg[v] * tab[v*8+u]. A
// term projectGo skips (marg[v] <= 0) is masked to +0 instead: a
// compare keeps the lanes where marg[v] > 0 or is NaN, exactly the
// terms projectGo keeps, and the product is zeroed elsewhere (VANDPD
// with the compare's mask, or VMULPD.Z under an opmask), so a masked
// term is +0 even when the table holds an infinity. Adding +0 leaves
// every accumulator unchanged, since none is ever -0.
//
// Why the argmax is ArgMax's. ArgMax keeps the first index whose value
// beats every earlier one, starting from -1. When no marginal value is
// negative or NaN that is the lowest index equal to the maximum, which
// the kernel finds by a VMAXPD reduction, an equality compare and BSF
// (== treats -0 and +0 alike, as > does). When any value is negative or
// NaN the kernel runs ArgMax's scalar loop itself.

// func twoDepSeries8AVX2(rows, dist, next *float64, start, steps int, marg, proj, tab *float64, argmax *int32, pre *float64)
//
// rows is [512]float64 column-major, indexed [(c*8+p)*8+j]: the row of
// combined state (p, c), with column c's eight rows one contiguous
// 512-byte run. dist and next are [64]float64 indexed [p*8+c], and
// swap roles after every step. With start < 0 the window starts from
// dist; with start >= 0 it starts from the one-hot distribution at
// start, and dist's contents are not read. Step s writes
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
TEXT ·twoDepSeries8AVX2(SB), NOSPLIT, $0-80
	MOVQ rows+0(FP), R8
	MOVQ dist+8(FP), R9
	MOVQ next+16(FP), R10
	MOVQ steps+32(FP), R11
	MOVQ marg+40(FP), BX
	MOVQ proj+48(FP), R12
	MOVQ tab+56(FP), R13
	MOVQ argmax+64(FP), AX
	MOVQ pre+72(FP), R14 // ABI0 code may clobber R14; the wrapper restores g
	VXORPD Y15, Y15, Y15 // +0 in every lane, for the adds and compares
	TESTQ R11, R11
	JZ done

step:
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

	// Step 1 from the start state.
	SHRQ $3, DX  // prev
	SHLQ $6, DX  // prev*64
	LEAQ (R8)(SI*8), DI // rows of column cur
	VMOVUPD Y15, (R10)
	VMOVUPD Y15, 32(R10)
	VMOVUPD Y15, 64(R10)
	VMOVUPD Y15, 96(R10)
	VMOVUPD Y15, 128(R10)
	VMOVUPD Y15, 160(R10)
	VMOVUPD Y15, 192(R10)
	VMOVUPD Y15, 224(R10)
	VMOVUPD Y15, 256(R10)
	VMOVUPD Y15, 288(R10)
	VMOVUPD Y15, 320(R10)
	VMOVUPD Y15, 352(R10)
	VMOVUPD Y15, 384(R10)
	VMOVUPD Y15, 416(R10)
	VMOVUPD Y15, 448(R10)
	VMOVUPD Y15, 480(R10)
	VADDPD (DI)(DX*1), Y15, Y4
	VADDPD 32(DI)(DX*1), Y15, Y5
	VMOVUPD Y4, (R10)(SI*1)
	VMOVUPD Y5, 32(R10)(SI*1)
	JMP stored

second:
	// Step 2, one term a cell.
	LEAQ (R9)(SI*1), DI // &dist[cur*8]
	ADDQ R8, SI         // row (0, cur); row (c, cur) is c*512 bytes on
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

#define ONE(c) \
	VBROADCASTSD (c*8)(DI), Y2     \
	VMULPD (c*512)(SI), Y2, Y0     \
	VADDPD Y0, Y15, Y0             \
	VMULPD (c*512+32)(SI), Y2, Y1  \
	VADDPD Y1, Y15, Y1             \
	VMOVUPD Y0, (c*64)(R10)        \
	VMOVUPD Y1, (c*64+32)(R10)     \
	VADDPD Y0, Y4, Y4              \
	VADDPD Y1, Y5, Y5

	ONE(0)
	ONE(1)
	ONE(2)
	ONE(3)
	ONE(4)
	ONE(5)
	ONE(6)
	ONE(7)
	JMP stored

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
	ADDQ $512, SI
	ADDQ $8, DI
	ADDQ $64, DX
	DECQ CX
	JNZ column

stored:
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	TESTQ R12, R12
	JZ advance

	VXORPD Y8, Y8, Y8 // proj[0:4]
	VXORPD Y9, Y9, Y9 // proj[4:8]

// One marginal term: marg[v] broadcast, the mask of lanes that keep it
// (predicate NLE_US, as in PROJZ), and table row v.
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

	VCMPPD $9, Y15, Y4, Y6
	VCMPPD $9, Y15, Y5, Y7
	VORPD Y7, Y6, Y6
	VMOVMSKPD Y6, CX
	TESTL CX, CX
	JNZ scalarmax

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
	XCHGQ R9, R10
	DECQ R11
	JNZ step

done:
	VZEROUPPER
	RET
