#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when the CPU has it (CPUID.7.0:EBX[5]) and the OS
// saves the YMM state: OSXSAVE and AVX in CPUID.1:ECX[27,28], and
// XGETBV(0) reporting XMM and YMM state enabled. A CPU that reports AVX
// has the XSAVE leaf 0xD, so leaf 7 is within range.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
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

// func hasAVX512() bool
//
// The 512-bit kernels are usable when the CPU has AVX2 and AVX-512F
// (CPUID.7.0:EBX[5,16]) and the OS saves the opmask and ZMM state as
// well as the XMM and YMM state: XGETBV(0) bits 1, 2, 5, 6 and 7 (XMM,
// YMM, opmask, the upper halves of ZMM0-15, ZMM16-31), after the same
// OSXSAVE and AVX check as hasAVX2.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE done
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x10020, BX
	CMPL BX, $0x10020
	JNE done
	MOVB $1, ret+0(FP)
done:
	RET
