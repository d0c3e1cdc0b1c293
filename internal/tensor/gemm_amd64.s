#include "textflag.h"

// The AVX kernels behind gemm_amd64.go. Each YMM lane holds a different
// output element and takes its own VMULPD then VADDPD, in the order the Go
// kernels in gemm.go use for that element, so every element's bits match
// theirs. There is no FMA: a fused multiply-add rounds once where the Go
// kernels round twice. Each routine ends with VZEROUPPER, so the Go code it
// returns to pays no SSE/AVX transition penalty.

// func tile4x8(c, a *[4]*float64, p *[vecW * tileK]float64, kl int)
//
// For r < 4 and w < 8: c[r][w] += a[r][k]·p[k*8+w] for k = 0 … kl-1 in
// ascending order, with the 4×8 tile of C held in Y0–Y7.
TEXT ·tile4x8(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ kl+24(FP), CX
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	VMOVUPD 0(R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 0(R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD 0(R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD 0(R11), Y6
	VMOVUPD 32(R11), Y7
	MOVQ 0(SI), AX
	MOVQ 8(SI), BX
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	XORQ SI, SI
	TESTQ CX, CX
	JZ   store

loop:
	VMOVUPD      0(DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (AX)(SI*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (BX)(SI*8), Y13
	VMULPD       Y8, Y13, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y13, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R12)(SI*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R13)(SI*8), Y13
	VMULPD       Y8, Y13, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y13, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $64, DX
	INCQ         SI
	CMPQ         SI, CX
	JLT          loop

store:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 0(R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, 0(R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, 0(R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func quadRow(c, b0, b1, b2, b3 []float64, v0, v1, v2, v3 float64)
//
// For j < len(c): c[j] += v0·b0[j] + v1·b1[j] + v2·b2[j] + v3·b3[j], the
// four products summed left to right; four columns per YMM step, then one
// per scalar step.
TEXT ·quadRow(SB), NOSPLIT, $0-152
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         b0_base+24(FP), R8
	MOVQ         b1_base+48(FP), R9
	MOVQ         b2_base+72(FP), R10
	MOVQ         b3_base+96(FP), R11
	VBROADCASTSD v0+120(FP), Y0
	VBROADCASTSD v1+128(FP), Y1
	VBROADCASTSD v2+136(FP), Y2
	VBROADCASTSD v3+144(FP), Y3
	MOVQ         CX, BX
	ANDQ         $-4, BX
	XORQ         AX, AX

vec:
	CMPQ    AX, BX
	JGE     tail
	VMULPD  (R8)(AX*8), Y0, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     vec

tail:
	CMPQ   AX, CX
	JGE    done
	VMULSD (R8)(AX*8), X0, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuid1() (ecx uint32)
TEXT ·cpuid1(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ecx+0(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
