#include "textflag.h"

// AVX2/FMA micro-kernels for a·bᵀ. Each output keeps one YMM accumulator
// whose lane L sums a[p]·b[p] over p ≡ L (mod 4) by VFMADD231PD; REDUCE
// folds the lanes as (s0+s2)+(s1+s3) and the k mod 4 tail is added by
// VFMADD231SD, which is exactly dotFMA in microkernel.go.

// REDUCE leaves (s0+s2)+(s1+s3) of the lanes of Y in the low lane of X
// (the low half of Y), using X14 as scratch.
#define REDUCE(Y, X) \
	VEXTRACTF128 $1, Y, X14; \
	VADDPD       X14, X, X;  \
	VPERMILPD    $1, X, X14; \
	VADDSD       X14, X, X

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func tile2x4(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, k int)
TEXT ·tile2x4(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), BX
	LEAQ (SI)(BX*8), DI
	MOVQ b+16(FP), R8
	MOVQ ldb+24(FP), BX
	LEAQ (R8)(BX*8), R9
	LEAQ (R9)(BX*8), R10
	LEAQ (R10)(BX*8), R11
	MOVQ c+32(FP), R12
	MOVQ ldc+40(FP), BX
	LEAQ (R12)(BX*8), R13
	MOVQ k+48(FP), CX
	SHLQ $3, CX
	MOVQ CX, R14
	ANDQ $-32, R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   AX, R14
	JGE    reduce24

loop24:
	VMOVUPD     (SI)(AX*1), Y8
	VMOVUPD     (DI)(AX*1), Y9
	VMOVUPD     (R8)(AX*1), Y10
	VMOVUPD     (R9)(AX*1), Y11
	VMOVUPD     (R10)(AX*1), Y12
	VMOVUPD     (R11)(AX*1), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ        $32, AX
	CMPQ        AX, R14
	JLT         loop24

reduce24:
	REDUCE(Y0, X0)
	REDUCE(Y1, X1)
	REDUCE(Y2, X2)
	REDUCE(Y3, X3)
	REDUCE(Y4, X4)
	REDUCE(Y5, X5)
	REDUCE(Y6, X6)
	REDUCE(Y7, X7)

tail24:
	CMPQ        AX, CX
	JGE         store24
	VMOVSD      (SI)(AX*1), X8
	VMOVSD      (DI)(AX*1), X9
	VMOVSD      (R8)(AX*1), X10
	VMOVSD      (R9)(AX*1), X11
	VMOVSD      (R10)(AX*1), X12
	VMOVSD      (R11)(AX*1), X13
	VFMADD231SD X10, X8, X0
	VFMADD231SD X11, X8, X1
	VFMADD231SD X12, X8, X2
	VFMADD231SD X13, X8, X3
	VFMADD231SD X10, X9, X4
	VFMADD231SD X11, X9, X5
	VFMADD231SD X12, X9, X6
	VFMADD231SD X13, X9, X7
	ADDQ        $8, AX
	JMP         tail24

store24:
	VMOVSD X0, (R12)
	VMOVSD X1, 8(R12)
	VMOVSD X2, 16(R12)
	VMOVSD X3, 24(R12)
	VMOVSD X4, (R13)
	VMOVSD X5, 8(R13)
	VMOVSD X6, 16(R13)
	VMOVSD X7, 24(R13)
	VZEROUPPER
	RET

// func tile1x4(a *float64, b *float64, ldb int, c *float64, k int)
TEXT ·tile1x4(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), R8
	MOVQ ldb+16(FP), BX
	LEAQ (R8)(BX*8), R9
	LEAQ (R9)(BX*8), R10
	LEAQ (R10)(BX*8), R11
	MOVQ c+24(FP), R12
	MOVQ k+32(FP), CX
	SHLQ $3, CX
	MOVQ CX, R14
	ANDQ $-32, R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, R14
	JGE    reduce14

loop14:
	VMOVUPD     (SI)(AX*1), Y8
	VFMADD231PD (R8)(AX*1), Y8, Y0
	VFMADD231PD (R9)(AX*1), Y8, Y1
	VFMADD231PD (R10)(AX*1), Y8, Y2
	VFMADD231PD (R11)(AX*1), Y8, Y3
	ADDQ        $32, AX
	CMPQ        AX, R14
	JLT         loop14

reduce14:
	REDUCE(Y0, X0)
	REDUCE(Y1, X1)
	REDUCE(Y2, X2)
	REDUCE(Y3, X3)

tail14:
	CMPQ        AX, CX
	JGE         store14
	VMOVSD      (SI)(AX*1), X8
	VMOVSD      (R8)(AX*1), X10
	VMOVSD      (R9)(AX*1), X11
	VMOVSD      (R10)(AX*1), X12
	VMOVSD      (R11)(AX*1), X13
	VFMADD231SD X10, X8, X0
	VFMADD231SD X11, X8, X1
	VFMADD231SD X12, X8, X2
	VFMADD231SD X13, X8, X3
	ADDQ        $8, AX
	JMP         tail14

store14:
	VMOVSD X0, (R12)
	VMOVSD X1, 8(R12)
	VMOVSD X2, 16(R12)
	VMOVSD X3, 24(R12)
	VZEROUPPER
	RET

// func dot1(a, b *float64, k int) float64
TEXT ·dot1(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), R8
	MOVQ   k+16(FP), CX
	SHLQ   $3, CX
	MOVQ   CX, R14
	ANDQ   $-32, R14
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, R14
	JGE    reduce11

loop11:
	VMOVUPD     (SI)(AX*1), Y8
	VFMADD231PD (R8)(AX*1), Y8, Y0
	ADDQ        $32, AX
	CMPQ        AX, R14
	JLT         loop11

reduce11:
	REDUCE(Y0, X0)

tail11:
	CMPQ        AX, CX
	JGE         done11
	VMOVSD      (SI)(AX*1), X8
	VMOVSD      (R8)(AX*1), X10
	VFMADD231SD X10, X8, X0
	ADDQ        $8, AX
	JMP         tail11

done11:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET
