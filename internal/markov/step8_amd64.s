#include "textflag.h"

// The 8-state TwoDepChain propagation step, four float64 lanes at a
// time. See twoDepStep8Go in batch.go for the scalar kernel this
// mirrors and must match bit for bit.
//
// Why it is bit-identical. Each YMM lane holds one accumulator of the
// scalar kernel and performs exactly the scalar kernel's sequence: it
// starts at +0, then for p = 0..7 in ascending order takes one IEEE
// multiply (dist[p*8+c] * rows[(c*8+p)*8+j]) followed by one IEEE
// add, and the marginal lanes add the finished columns in ascending c.
// VMULPD and VADDPD round each lane exactly like MULSD and ADDSD. There
// is no VFMADD here and there must never be: a fused multiply-add skips
// the rounding of the product and changes the low bits.
//
// The scalar kernel skips terms whose dist entry is zero; this one does
// not. That is exact because rows are finite non-negative
// probabilities, so a skipped product is +0, and a + (+0) == a for
// every value an accumulator can hold (+0 or positive).

// func twoDepStep8AVX2(rows, dist, next, marg *float64)
//
// rows is [512]float64 column-major, indexed [(c*8+p)*8+j]: the row of
// combined state (p, c), with column c's eight rows one contiguous
// 512-byte run. dist and next are [64]float64 indexed [p*8+c], marg is
// [8]float64:
//
//	next[c*8+j] = sum_p dist[p*8+c] * rows[(c*8+p)*8+j]
//	marg[j]     = sum_c next[c*8+j]
TEXT ·twoDepStep8AVX2(SB), NOSPLIT, $0-32
	MOVQ rows+0(FP), SI
	MOVQ dist+8(FP), DI
	MOVQ next+16(FP), DX
	MOVQ marg+24(FP), BX
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
