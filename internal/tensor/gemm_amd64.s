#include "textflag.h"

// The AVX and AVX-512 kernels behind gemm_amd64.go. Each YMM or ZMM lane
// holds a different output element and takes its own VMULPD then VADDPD
// (maskTile4x8: VSUBPD of the negated product, the same bits;
// maskTile4x16: an add merge-masked by an opmask), in the order the Go
// kernels in gemm.go use for that element, so every element's bits match
// theirs. Every add takes the running value (the one that started from C)
// as its first operand, so where two NaNs meet, an x86 add keeps that
// one's payload: the order the spec states, which the Go kernels' compiled
// adds, whose operands the compiler may swap, match NaN for NaN only.
// There is no FMA: a fused multiply-add rounds once where the Go
// kernels round twice. Each routine ends with VZEROUPPER, so the Go code
// it returns to pays no SSE/AVX transition penalty. The ZMM routines use
// AVX512F instructions only, and Z0–Z15.

// The sign bit of a float64: XOR with it negates.
DATA signBit<>+0(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

// ntLanes is eight lanes of all ones, then eight of zeros: the eight
// values from ntLanes+8(8−nv) on are a VMASKMOVPD mask of the first nv
// lanes.
DATA ntLanes<>+0(SB)/8, $-1
DATA ntLanes<>+8(SB)/8, $-1
DATA ntLanes<>+16(SB)/8, $-1
DATA ntLanes<>+24(SB)/8, $-1
DATA ntLanes<>+32(SB)/8, $-1
DATA ntLanes<>+40(SB)/8, $-1
DATA ntLanes<>+48(SB)/8, $-1
DATA ntLanes<>+56(SB)/8, $-1
GLOBL ntLanes<>(SB), RODATA|NOPTR, $128

// func tile4x8(c, a *[4]*float64, b *float64, bs, kl int)
//
// For r < 4 and w < 8: c[r][w] += a[r][k]·b[k*bs+w] for k = 0 … kl-1 in
// ascending order, with the 4×8 tile of C held in Y0–Y7.
TEXT ·tile4x8(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bs+24(FP), R8
	MOVQ kl+32(FP), CX
	SHLQ $3, R8
	MOVQ 0(DI), R9
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	MOVQ 8(DI), R9
	VMOVUPD 0(R9), Y2
	VMOVUPD 32(R9), Y3
	MOVQ 16(DI), R9
	VMOVUPD 0(R9), Y4
	VMOVUPD 32(R9), Y5
	MOVQ 24(DI), R9
	VMOVUPD 0(R9), Y6
	VMOVUPD 32(R9), Y7
	MOVQ 0(SI), AX
	MOVQ 8(SI), BX
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	XORQ SI, SI
	TESTQ CX, CX
	JZ   tile4x8store

tile4x8loop:
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
	ADDQ         R8, DX
	INCQ         SI
	CMPQ         SI, CX
	JLT          tile4x8loop

tile4x8store:
	MOVQ    0(DI), R9
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	MOVQ    8(DI), R9
	VMOVUPD Y2, 0(R9)
	VMOVUPD Y3, 32(R9)
	MOVQ    16(DI), R9
	VMOVUPD Y4, 0(R9)
	VMOVUPD Y5, 32(R9)
	MOVQ    24(DI), R9
	VMOVUPD Y6, 0(R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET

// func maskTile4x8(c, a *[4]*float64, b *float64, bs, kl int)
//
// tile4x8 for rows that hold zeros: a row skips every k whose a[r][k] is
// ±0. Each k negates its eight b values as (−0) − b, and a row takes
// VCMPPD NEQ_UQ of a[r][k] against zero — a lane mask of all ones unless
// a[r][k] is ±0 (NaN is not zero, so it propagates) — ANDs it into the
// product a·(−b) and subtracts: at a skipped k it subtracts +0, and
// x − (+0) is x for every x; at any other k, c − a·(−b) is c + a·b bit for
// bit, since negation is exact and IEEE subtraction adds the negation,
// signed zeros included. The negation is a subtraction, not a sign-bit
// flip, because a NaN operand passes through an arithmetic instruction with
// its sign: a NaN in B reaches C with the same bits as on tile4x8 and the
// Go path, where an XOR would flip its sign.
TEXT ·maskTile4x8(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bs+24(FP), R8
	MOVQ kl+32(FP), CX
	SHLQ $3, R8
	MOVQ 0(DI), R9
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	MOVQ 8(DI), R9
	VMOVUPD 0(R9), Y2
	VMOVUPD 32(R9), Y3
	MOVQ 16(DI), R9
	VMOVUPD 0(R9), Y4
	VMOVUPD 32(R9), Y5
	MOVQ 24(DI), R9
	VMOVUPD 0(R9), Y6
	VMOVUPD 32(R9), Y7
	VBROADCASTSD signBit<>(SB), Y14
	VXORPD       Y15, Y15, Y15
	MOVQ 0(SI), AX
	MOVQ 8(SI), BX
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	XORQ SI, SI
	TESTQ CX, CX
	JZ   maskTile4x8store

maskTile4x8loop:
	VSUBPD       0(DX), Y14, Y8
	VSUBPD       32(DX), Y14, Y9
	VBROADCASTSD (AX)(SI*8), Y10
	VCMPPD       $4, Y15, Y10, Y13
	VMULPD       Y8, Y10, Y11
	VANDPD       Y13, Y11, Y11
	VSUBPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VANDPD       Y13, Y12, Y12
	VSUBPD       Y12, Y1, Y1
	VBROADCASTSD (BX)(SI*8), Y10
	VCMPPD       $4, Y15, Y10, Y13
	VMULPD       Y8, Y10, Y11
	VANDPD       Y13, Y11, Y11
	VSUBPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VANDPD       Y13, Y12, Y12
	VSUBPD       Y12, Y3, Y3
	VBROADCASTSD (R12)(SI*8), Y10
	VCMPPD       $4, Y15, Y10, Y13
	VMULPD       Y8, Y10, Y11
	VANDPD       Y13, Y11, Y11
	VSUBPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VANDPD       Y13, Y12, Y12
	VSUBPD       Y12, Y5, Y5
	VBROADCASTSD (R13)(SI*8), Y10
	VCMPPD       $4, Y15, Y10, Y13
	VMULPD       Y8, Y10, Y11
	VANDPD       Y13, Y11, Y11
	VSUBPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VANDPD       Y13, Y12, Y12
	VSUBPD       Y12, Y7, Y7
	ADDQ         R8, DX
	INCQ         SI
	CMPQ         SI, CX
	JLT          maskTile4x8loop

maskTile4x8store:
	MOVQ    0(DI), R9
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	MOVQ    8(DI), R9
	VMOVUPD Y2, 0(R9)
	VMOVUPD Y3, 32(R9)
	MOVQ    16(DI), R9
	VMOVUPD Y4, 0(R9)
	VMOVUPD Y5, 32(R9)
	MOVQ    24(DI), R9
	VMOVUPD Y6, 0(R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET

// func tnTile4x8(c *[4]*float64, pa *[4 * tileK]float64, b *float64, bs, kl int)
//
// A 4-row × 8-column tile of C += Aᵀ·B over one k block of depth kl, held
// in Y0–Y7. pa is the block of A packed k-major, pa[4k+r] = a for C row r
// at block row k; b points at the block's first B row, column 0 of the
// tile, and B rows are bs values apart. For each quad of block rows the
// 4×4 block of pa is compared with zero once (a mask bit per row whose four
// values are all ±0, which skips that row) and every other row r adds
// ((v0·b0 + v1·b1) + v2·b2) + v3·b3 to its eight columns; then each of the
// last kl mod 4 block rows adds v·b to the rows whose v is not ±0.
TEXT ·tnTile4x8(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ pa+8(FP), DX
	MOVQ b+16(FP), R8
	MOVQ bs+24(FP), BX
	MOVQ kl+32(FP), CX
	SHLQ $3, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	MOVQ BX, SI
	SHLQ $2, SI
	MOVQ 0(DI), R12
	VMOVUPD 0(R12), Y0
	VMOVUPD 32(R12), Y1
	MOVQ 8(DI), R12
	VMOVUPD 0(R12), Y2
	VMOVUPD 32(R12), Y3
	MOVQ 16(DI), R12
	VMOVUPD 0(R12), Y4
	VMOVUPD 32(R12), Y5
	MOVQ 24(DI), R12
	VMOVUPD 0(R12), Y6
	VMOVUPD 32(R12), Y7
	MOVQ CX, R13
	SHRQ $2, R13
	ANDQ $3, CX
	TESTQ R13, R13
	JZ   ttail

tquad:
	VXORPD       Y12, Y12, Y12
	VCMPPD       $0, 0(DX), Y12, Y13
	VCMPPD       $0, 32(DX), Y12, Y14
	VANDPD       Y14, Y13, Y13
	VCMPPD       $0, 64(DX), Y12, Y14
	VANDPD       Y14, Y13, Y13
	VCMPPD       $0, 96(DX), Y12, Y14
	VANDPD       Y14, Y13, Y13
	VMOVMSKPD    Y13, AX
	BTQ          $0, AX
	JCS          qskip0
	VBROADCASTSD 0(DX), Y8
	VBROADCASTSD 32(DX), Y9
	VBROADCASTSD 64(DX), Y10
	VBROADCASTSD 96(DX), Y11
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VMULPD       0(R9), Y9, Y14
	VMULPD       32(R9), Y9, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R10), Y10, Y14
	VMULPD       32(R10), Y10, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R11), Y11, Y14
	VMULPD       32(R11), Y11, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1

qskip0:
	BTQ          $1, AX
	JCS          qskip1
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 40(DX), Y9
	VBROADCASTSD 72(DX), Y10
	VBROADCASTSD 104(DX), Y11
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VMULPD       0(R9), Y9, Y14
	VMULPD       32(R9), Y9, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R10), Y10, Y14
	VMULPD       32(R10), Y10, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R11), Y11, Y14
	VMULPD       32(R11), Y11, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VADDPD       Y12, Y2, Y2
	VADDPD       Y13, Y3, Y3

qskip1:
	BTQ          $2, AX
	JCS          qskip2
	VBROADCASTSD 16(DX), Y8
	VBROADCASTSD 48(DX), Y9
	VBROADCASTSD 80(DX), Y10
	VBROADCASTSD 112(DX), Y11
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VMULPD       0(R9), Y9, Y14
	VMULPD       32(R9), Y9, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R10), Y10, Y14
	VMULPD       32(R10), Y10, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R11), Y11, Y14
	VMULPD       32(R11), Y11, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5

qskip2:
	BTQ          $3, AX
	JCS          qskip3
	VBROADCASTSD 24(DX), Y8
	VBROADCASTSD 56(DX), Y9
	VBROADCASTSD 88(DX), Y10
	VBROADCASTSD 120(DX), Y11
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VMULPD       0(R9), Y9, Y14
	VMULPD       32(R9), Y9, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R10), Y10, Y14
	VMULPD       32(R10), Y10, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VMULPD       0(R11), Y11, Y14
	VMULPD       32(R11), Y11, Y15
	VADDPD       Y14, Y12, Y12
	VADDPD       Y15, Y13, Y13
	VADDPD       Y12, Y6, Y6
	VADDPD       Y13, Y7, Y7

qskip3:
	ADDQ         $128, DX
	ADDQ         SI, R8
	ADDQ         SI, R9
	ADDQ         SI, R10
	ADDQ         SI, R11
	DECQ         R13
	JNZ          tquad

ttail:
	TESTQ        CX, CX
	JZ           tstore
	VXORPD       Y12, Y12, Y12
	VCMPPD       $0, 0(DX), Y12, Y13
	VMOVMSKPD    Y13, AX
	BTQ          $0, AX
	JCS          tskip0
	VBROADCASTSD 0(DX), Y8
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1

tskip0:
	BTQ          $1, AX
	JCS          tskip1
	VBROADCASTSD 8(DX), Y8
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VADDPD       Y12, Y2, Y2
	VADDPD       Y13, Y3, Y3

tskip1:
	BTQ          $2, AX
	JCS          tskip2
	VBROADCASTSD 16(DX), Y8
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5

tskip2:
	BTQ          $3, AX
	JCS          tskip3
	VBROADCASTSD 24(DX), Y8
	VMULPD       0(R8), Y8, Y12
	VMULPD       32(R8), Y8, Y13
	VADDPD       Y12, Y6, Y6
	VADDPD       Y13, Y7, Y7

tskip3:
	ADDQ         $32, DX
	ADDQ         BX, R8
	DECQ         CX
	JMP          ttail

tstore:
	MOVQ    0(DI), R12
	VMOVUPD Y0, 0(R12)
	VMOVUPD Y1, 32(R12)
	MOVQ    8(DI), R12
	VMOVUPD Y2, 0(R12)
	VMOVUPD Y3, 32(R12)
	MOVQ    16(DI), R12
	VMOVUPD Y4, 0(R12)
	VMOVUPD Y5, 32(R12)
	MOVQ    24(DI), R12
	VMOVUPD Y6, 0(R12)
	VMOVUPD Y7, 32(R12)
	VZEROUPPER
	RET

// func tile4x16(c, a *[4]*float64, b *float64, bs, kl int)
//
// tile4x8 on 16 columns: for r < 4 and w < 16, c[r][w] += a[r][k]·b[k*bs+w]
// for k = 0 … kl-1 in ascending order, with the 4×16 tile of C held in
// Z0–Z7, two ZMM registers per row.
TEXT ·tile4x16(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bs+24(FP), R8
	MOVQ kl+32(FP), CX
	SHLQ $3, R8
	MOVQ 0(DI), R9
	VMOVUPD 0(R9), Z0
	VMOVUPD 64(R9), Z1
	MOVQ 8(DI), R9
	VMOVUPD 0(R9), Z2
	VMOVUPD 64(R9), Z3
	MOVQ 16(DI), R9
	VMOVUPD 0(R9), Z4
	VMOVUPD 64(R9), Z5
	MOVQ 24(DI), R9
	VMOVUPD 0(R9), Z6
	VMOVUPD 64(R9), Z7
	MOVQ 0(SI), AX
	MOVQ 8(SI), BX
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	XORQ SI, SI
	TESTQ CX, CX
	JZ   tile4x16store

tile4x16loop:
	VMOVUPD      0(DX), Z8
	VMOVUPD      64(DX), Z9
	VBROADCASTSD (AX)(SI*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z0, Z0
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z1, Z1
	VBROADCASTSD (BX)(SI*8), Z13
	VMULPD       Z8, Z13, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       Z9, Z13, Z12
	VADDPD       Z12, Z3, Z3
	VBROADCASTSD (R12)(SI*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z4, Z4
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z5, Z5
	VBROADCASTSD (R13)(SI*8), Z13
	VMULPD       Z8, Z13, Z11
	VADDPD       Z11, Z6, Z6
	VMULPD       Z9, Z13, Z12
	VADDPD       Z12, Z7, Z7
	ADDQ         R8, DX
	INCQ         SI
	CMPQ         SI, CX
	JLT          tile4x16loop

tile4x16store:
	MOVQ    0(DI), R9
	VMOVUPD Z0, 0(R9)
	VMOVUPD Z1, 64(R9)
	MOVQ    8(DI), R9
	VMOVUPD Z2, 0(R9)
	VMOVUPD Z3, 64(R9)
	MOVQ    16(DI), R9
	VMOVUPD Z4, 0(R9)
	VMOVUPD Z5, 64(R9)
	MOVQ    24(DI), R9
	VMOVUPD Z6, 0(R9)
	VMOVUPD Z7, 64(R9)
	VZEROUPPER
	RET

// func maskTile4x16(c, a *[4]*float64, b *float64, bs, kl int)
//
// maskTile4x8 on 16 columns, the tile held in Z0–Z7. Per k and row,
// VCMPPD NEQ_UQ of the broadcast a[r][k] against zero sets K1 to all ones
// unless a[r][k] is ±0 (NaN is not zero, so it propagates), and the row's
// two adds are merge-masked by K1: at a skipped k every lane keeps its
// bits, and at any other k the lane takes the same VMULPD then VADDPD as
// tile4x16. No negation is needed, so a NaN from B keeps its sign.
TEXT ·maskTile4x16(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bs+24(FP), R8
	MOVQ kl+32(FP), CX
	SHLQ $3, R8
	MOVQ 0(DI), R9
	VMOVUPD 0(R9), Z0
	VMOVUPD 64(R9), Z1
	MOVQ 8(DI), R9
	VMOVUPD 0(R9), Z2
	VMOVUPD 64(R9), Z3
	MOVQ 16(DI), R9
	VMOVUPD 0(R9), Z4
	VMOVUPD 64(R9), Z5
	MOVQ 24(DI), R9
	VMOVUPD 0(R9), Z6
	VMOVUPD 64(R9), Z7
	VPXORQ  Z15, Z15, Z15
	MOVQ 0(SI), AX
	MOVQ 8(SI), BX
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	XORQ SI, SI
	TESTQ CX, CX
	JZ   maskTile4x16store

maskTile4x16loop:
	VMOVUPD      0(DX), Z8
	VMOVUPD      64(DX), Z9
	VBROADCASTSD (AX)(SI*8), Z10
	VCMPPD       $4, Z15, Z10, K1
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z0, K1, Z0
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z1, K1, Z1
	VBROADCASTSD (BX)(SI*8), Z13
	VCMPPD       $4, Z15, Z13, K1
	VMULPD       Z8, Z13, Z11
	VADDPD       Z11, Z2, K1, Z2
	VMULPD       Z9, Z13, Z12
	VADDPD       Z12, Z3, K1, Z3
	VBROADCASTSD (R12)(SI*8), Z10
	VCMPPD       $4, Z15, Z10, K1
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z4, K1, Z4
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z5, K1, Z5
	VBROADCASTSD (R13)(SI*8), Z13
	VCMPPD       $4, Z15, Z13, K1
	VMULPD       Z8, Z13, Z11
	VADDPD       Z11, Z6, K1, Z6
	VMULPD       Z9, Z13, Z12
	VADDPD       Z12, Z7, K1, Z7
	ADDQ         R8, DX
	INCQ         SI
	CMPQ         SI, CX
	JLT          maskTile4x16loop

maskTile4x16store:
	MOVQ    0(DI), R9
	VMOVUPD Z0, 0(R9)
	VMOVUPD Z1, 64(R9)
	MOVQ    8(DI), R9
	VMOVUPD Z2, 0(R9)
	VMOVUPD Z3, 64(R9)
	MOVQ    16(DI), R9
	VMOVUPD Z4, 0(R9)
	VMOVUPD Z5, 64(R9)
	MOVQ    24(DI), R9
	VMOVUPD Z6, 0(R9)
	VMOVUPD Z7, 64(R9)
	VZEROUPPER
	RET

// func tnTile4x16(c *[4]*float64, pa *[4 * tileK]float64, b *float64, bs, kl int)
//
// tnTile4x8 on 16 columns, the tile held in Z0–Z7: the same quad masks
// (computed in YMM registers, since a quad's 4×4 block of pa is four YMM
// loads), the same per-row skips and the same left-to-right quad sum, each
// row's products two ZMM registers wide.
TEXT ·tnTile4x16(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ pa+8(FP), DX
	MOVQ b+16(FP), R8
	MOVQ bs+24(FP), BX
	MOVQ kl+32(FP), CX
	SHLQ $3, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	MOVQ BX, SI
	SHLQ $2, SI
	MOVQ 0(DI), R12
	VMOVUPD 0(R12), Z0
	VMOVUPD 64(R12), Z1
	MOVQ 8(DI), R12
	VMOVUPD 0(R12), Z2
	VMOVUPD 64(R12), Z3
	MOVQ 16(DI), R12
	VMOVUPD 0(R12), Z4
	VMOVUPD 64(R12), Z5
	MOVQ 24(DI), R12
	VMOVUPD 0(R12), Z6
	VMOVUPD 64(R12), Z7
	MOVQ CX, R13
	SHRQ $2, R13
	ANDQ $3, CX
	TESTQ R13, R13
	JZ   zttail

ztquad:
	VXORPD       Y12, Y12, Y12
	VCMPPD       $0, 0(DX), Y12, Y13
	VCMPPD       $0, 32(DX), Y12, Y14
	VANDPD       Y14, Y13, Y13
	VCMPPD       $0, 64(DX), Y12, Y14
	VANDPD       Y14, Y13, Y13
	VCMPPD       $0, 96(DX), Y12, Y14
	VANDPD       Y14, Y13, Y13
	VMOVMSKPD    Y13, AX
	BTQ          $0, AX
	JCS          zqskip0
	VBROADCASTSD 0(DX), Z8
	VBROADCASTSD 32(DX), Z9
	VBROADCASTSD 64(DX), Z10
	VBROADCASTSD 96(DX), Z11
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VMULPD       0(R9), Z9, Z14
	VMULPD       64(R9), Z9, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R10), Z10, Z14
	VMULPD       64(R10), Z10, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R11), Z11, Z14
	VMULPD       64(R11), Z11, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VADDPD       Z12, Z0, Z0
	VADDPD       Z13, Z1, Z1

zqskip0:
	BTQ          $1, AX
	JCS          zqskip1
	VBROADCASTSD 8(DX), Z8
	VBROADCASTSD 40(DX), Z9
	VBROADCASTSD 72(DX), Z10
	VBROADCASTSD 104(DX), Z11
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VMULPD       0(R9), Z9, Z14
	VMULPD       64(R9), Z9, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R10), Z10, Z14
	VMULPD       64(R10), Z10, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R11), Z11, Z14
	VMULPD       64(R11), Z11, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VADDPD       Z12, Z2, Z2
	VADDPD       Z13, Z3, Z3

zqskip1:
	BTQ          $2, AX
	JCS          zqskip2
	VBROADCASTSD 16(DX), Z8
	VBROADCASTSD 48(DX), Z9
	VBROADCASTSD 80(DX), Z10
	VBROADCASTSD 112(DX), Z11
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VMULPD       0(R9), Z9, Z14
	VMULPD       64(R9), Z9, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R10), Z10, Z14
	VMULPD       64(R10), Z10, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R11), Z11, Z14
	VMULPD       64(R11), Z11, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VADDPD       Z12, Z4, Z4
	VADDPD       Z13, Z5, Z5

zqskip2:
	BTQ          $3, AX
	JCS          zqskip3
	VBROADCASTSD 24(DX), Z8
	VBROADCASTSD 56(DX), Z9
	VBROADCASTSD 88(DX), Z10
	VBROADCASTSD 120(DX), Z11
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VMULPD       0(R9), Z9, Z14
	VMULPD       64(R9), Z9, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R10), Z10, Z14
	VMULPD       64(R10), Z10, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VMULPD       0(R11), Z11, Z14
	VMULPD       64(R11), Z11, Z15
	VADDPD       Z14, Z12, Z12
	VADDPD       Z15, Z13, Z13
	VADDPD       Z12, Z6, Z6
	VADDPD       Z13, Z7, Z7

zqskip3:
	ADDQ         $128, DX
	ADDQ         SI, R8
	ADDQ         SI, R9
	ADDQ         SI, R10
	ADDQ         SI, R11
	DECQ         R13
	JNZ          ztquad

zttail:
	TESTQ        CX, CX
	JZ           ztstore
	VXORPD       Y12, Y12, Y12
	VCMPPD       $0, 0(DX), Y12, Y13
	VMOVMSKPD    Y13, AX
	BTQ          $0, AX
	JCS          ztskip0
	VBROADCASTSD 0(DX), Z8
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VADDPD       Z12, Z0, Z0
	VADDPD       Z13, Z1, Z1

ztskip0:
	BTQ          $1, AX
	JCS          ztskip1
	VBROADCASTSD 8(DX), Z8
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VADDPD       Z12, Z2, Z2
	VADDPD       Z13, Z3, Z3

ztskip1:
	BTQ          $2, AX
	JCS          ztskip2
	VBROADCASTSD 16(DX), Z8
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VADDPD       Z12, Z4, Z4
	VADDPD       Z13, Z5, Z5

ztskip2:
	BTQ          $3, AX
	JCS          ztskip3
	VBROADCASTSD 24(DX), Z8
	VMULPD       0(R8), Z8, Z12
	VMULPD       64(R8), Z8, Z13
	VADDPD       Z12, Z6, Z6
	VADDPD       Z13, Z7, Z7

ztskip3:
	ADDQ         $32, DX
	ADDQ         BX, R8
	DECQ         CX
	JMP          zttail

ztstore:
	MOVQ    0(DI), R12
	VMOVUPD Z0, 0(R12)
	VMOVUPD Z1, 64(R12)
	MOVQ    8(DI), R12
	VMOVUPD Z2, 0(R12)
	VMOVUPD Z3, 64(R12)
	MOVQ    16(DI), R12
	VMOVUPD Z4, 0(R12)
	VMOVUPD Z5, 64(R12)
	MOVQ    24(DI), R12
	VMOVUPD Z6, 0(R12)
	VMOVUPD Z7, 64(R12)
	VZEROUPPER
	RET

// func ntTile4x16(c *float64, cs int, a *float64, as int, p *[wideW * tileK]float64, kl int, part *[4][wideW]float64, mode, nr int)
//
// The NT tile, on nr ≤ 4 rows of C cs values apart from c on and of A as
// values apart from a on (A rows past nr are read as copies of row nr−1,
// and their sums never reach C): for x < 16, a private sum
// s[r][x] of a[r][k]·p[16k+x] over k = 0 … kl-1 in ascending order, held
// in Z0–Z7 from +0 (zeroed registers), or, with ntResume (bit 0) in mode,
// from part[r][x]. With ntSuspend (bit 1) the sums go to part; otherwise
// each row ends with c[r][x] = c[r][x] + s[r][x], C the first operand of
// the VADDPD, so where both are NaN C's payload is kept, the order the
// spec loops of kernel_spec_test.go state.
TEXT ·ntTile4x16(SB), NOSPLIT, $0-72
	MOVQ    a+16(FP), AX
	MOVQ    as+24(FP), R8
	MOVQ    p+32(FP), DX
	MOVQ    kl+40(FP), CX
	MOVQ    part+48(FP), R10
	MOVQ    mode+56(FP), R11
	MOVQ    nr+64(FP), R9
	SHLQ    $3, R8
	LEAQ    (AX)(R8*1), BX
	CMPQ    R9, $1
	CMOVQLE AX, BX
	LEAQ    (BX)(R8*1), R12
	CMPQ    R9, $2
	CMOVQLE BX, R12
	LEAQ    (R12)(R8*1), R13
	CMPQ    R9, $3
	CMOVQLE R12, R13
	BTQ     $0, R11
	JCS     ntTile4x16resume
	VPXORQ  Z0, Z0, Z0
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	VPXORQ  Z3, Z3, Z3
	VPXORQ  Z4, Z4, Z4
	VPXORQ  Z5, Z5, Z5
	VPXORQ  Z6, Z6, Z6
	VPXORQ  Z7, Z7, Z7
	JMP     ntTile4x16sweep

ntTile4x16resume:
	VMOVUPD 0(R10), Z0
	VMOVUPD 64(R10), Z1
	VMOVUPD 128(R10), Z2
	VMOVUPD 192(R10), Z3
	VMOVUPD 256(R10), Z4
	VMOVUPD 320(R10), Z5
	VMOVUPD 384(R10), Z6
	VMOVUPD 448(R10), Z7

ntTile4x16sweep:
	XORQ  SI, SI
	TESTQ CX, CX
	JZ    ntTile4x16end

ntTile4x16loop:
	VMOVUPD      0(DX), Z8
	VMOVUPD      64(DX), Z9
	VBROADCASTSD (AX)(SI*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z0, Z0
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z1, Z1
	VBROADCASTSD (BX)(SI*8), Z13
	VMULPD       Z8, Z13, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       Z9, Z13, Z12
	VADDPD       Z12, Z3, Z3
	VBROADCASTSD (R12)(SI*8), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z4, Z4
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z5, Z5
	VBROADCASTSD (R13)(SI*8), Z13
	VMULPD       Z8, Z13, Z11
	VADDPD       Z11, Z6, Z6
	VMULPD       Z9, Z13, Z12
	VADDPD       Z12, Z7, Z7
	ADDQ         $128, DX
	INCQ         SI
	CMPQ         SI, CX
	JLT          ntTile4x16loop

ntTile4x16end:
	BTQ     $1, R11
	JCS     ntTile4x16suspend
	MOVQ    c+0(FP), DI
	MOVQ    cs+8(FP), R8
	SHLQ    $3, R8
	VMOVUPD 0(DI), Z8
	VMOVUPD 64(DI), Z9
	VADDPD  Z0, Z8, Z8
	VADDPD  Z1, Z9, Z9
	VMOVUPD Z8, 0(DI)
	VMOVUPD Z9, 64(DI)
	CMPQ    R9, $1
	JLE     ntTile4x16done
	ADDQ    R8, DI
	VMOVUPD 0(DI), Z8
	VMOVUPD 64(DI), Z9
	VADDPD  Z2, Z8, Z8
	VADDPD  Z3, Z9, Z9
	VMOVUPD Z8, 0(DI)
	VMOVUPD Z9, 64(DI)
	CMPQ    R9, $2
	JLE     ntTile4x16done
	ADDQ    R8, DI
	VMOVUPD 0(DI), Z8
	VMOVUPD 64(DI), Z9
	VADDPD  Z4, Z8, Z8
	VADDPD  Z5, Z9, Z9
	VMOVUPD Z8, 0(DI)
	VMOVUPD Z9, 64(DI)
	CMPQ    R9, $3
	JLE     ntTile4x16done
	ADDQ    R8, DI
	VMOVUPD 0(DI), Z8
	VMOVUPD 64(DI), Z9
	VADDPD  Z6, Z8, Z8
	VADDPD  Z7, Z9, Z9
	VMOVUPD Z8, 0(DI)
	VMOVUPD Z9, 64(DI)
	JMP     ntTile4x16done

ntTile4x16suspend:
	VMOVUPD Z0, 0(R10)
	VMOVUPD Z1, 64(R10)
	VMOVUPD Z2, 128(R10)
	VMOVUPD Z3, 192(R10)
	VMOVUPD Z4, 256(R10)
	VMOVUPD Z5, 320(R10)
	VMOVUPD Z6, 384(R10)
	VMOVUPD Z7, 448(R10)

ntTile4x16done:
	VZEROUPPER
	RET

// func ntTile4x8(c *float64, cs int, a *float64, as int, p *[wideW * tileK]float64, kl int, part *[4][wideW]float64, mode, nr, nv int)
//
// ntTile4x16 on 8 columns, the sums in Y0–Y7 and p 8 values per k. Only
// lanes x < nv reach C: below 8 the C rows are read and written with
// VMASKMOVPD under a mask of nv lanes (ntLanes from 8 − nv on), so a lane
// of a padded B row never loads or stores past C's row.
TEXT ·ntTile4x8(SB), NOSPLIT, $0-80
	MOVQ    a+16(FP), AX
	MOVQ    as+24(FP), R8
	MOVQ    p+32(FP), DX
	MOVQ    kl+40(FP), CX
	MOVQ    part+48(FP), R10
	MOVQ    mode+56(FP), R11
	MOVQ    nr+64(FP), R9
	SHLQ    $3, R8
	LEAQ    (AX)(R8*1), BX
	CMPQ    R9, $1
	CMOVQLE AX, BX
	LEAQ    (BX)(R8*1), R12
	CMPQ    R9, $2
	CMOVQLE BX, R12
	LEAQ    (R12)(R8*1), R13
	CMPQ    R9, $3
	CMOVQLE R12, R13
	BTQ     $0, R11
	JCS     ntTile4x8resume
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	JMP     ntTile4x8sweep

ntTile4x8resume:
	VMOVUPD 0(R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 128(R10), Y2
	VMOVUPD 160(R10), Y3
	VMOVUPD 256(R10), Y4
	VMOVUPD 288(R10), Y5
	VMOVUPD 384(R10), Y6
	VMOVUPD 416(R10), Y7

ntTile4x8sweep:
	XORQ  SI, SI
	TESTQ CX, CX
	JZ    ntTile4x8end

ntTile4x8loop:
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
	JLT          ntTile4x8loop

ntTile4x8end:
	BTQ     $1, R11
	JCS     ntTile4x8suspend
	MOVQ    c+0(FP), DI
	MOVQ    cs+8(FP), R8
	SHLQ    $3, R8
	MOVQ    nv+72(FP), CX
	CMPQ    CX, $8
	JLT     ntTile4x8masked
	VMOVUPD 0(DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y0, Y8, Y8
	VADDPD  Y1, Y9, Y9
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	CMPQ    R9, $1
	JLE     ntTile4x8done
	ADDQ    R8, DI
	VMOVUPD 0(DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y2, Y8, Y8
	VADDPD  Y3, Y9, Y9
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	CMPQ    R9, $2
	JLE     ntTile4x8done
	ADDQ    R8, DI
	VMOVUPD 0(DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	CMPQ    R9, $3
	JLE     ntTile4x8done
	ADDQ    R8, DI
	VMOVUPD 0(DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y6, Y8, Y8
	VADDPD  Y7, Y9, Y9
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	JMP     ntTile4x8done

ntTile4x8masked:
	LEAQ    ntLanes<>(SB), AX
	NEGQ    CX
	ADDQ    $8, CX
	VMOVUPD (AX)(CX*8), Y12
	VMOVUPD 32(AX)(CX*8), Y13
	VMASKMOVPD 0(DI), Y12, Y8
	VMASKMOVPD 32(DI), Y13, Y9
	VADDPD  Y0, Y8, Y8
	VADDPD  Y1, Y9, Y9
	VMASKMOVPD Y8, Y12, 0(DI)
	VMASKMOVPD Y9, Y13, 32(DI)
	CMPQ    R9, $1
	JLE     ntTile4x8done
	ADDQ    R8, DI
	VMASKMOVPD 0(DI), Y12, Y8
	VMASKMOVPD 32(DI), Y13, Y9
	VADDPD  Y2, Y8, Y8
	VADDPD  Y3, Y9, Y9
	VMASKMOVPD Y8, Y12, 0(DI)
	VMASKMOVPD Y9, Y13, 32(DI)
	CMPQ    R9, $2
	JLE     ntTile4x8done
	ADDQ    R8, DI
	VMASKMOVPD 0(DI), Y12, Y8
	VMASKMOVPD 32(DI), Y13, Y9
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y9, Y9
	VMASKMOVPD Y8, Y12, 0(DI)
	VMASKMOVPD Y9, Y13, 32(DI)
	CMPQ    R9, $3
	JLE     ntTile4x8done
	ADDQ    R8, DI
	VMASKMOVPD 0(DI), Y12, Y8
	VMASKMOVPD 32(DI), Y13, Y9
	VADDPD  Y6, Y8, Y8
	VADDPD  Y7, Y9, Y9
	VMASKMOVPD Y8, Y12, 0(DI)
	VMASKMOVPD Y9, Y13, 32(DI)
	JMP     ntTile4x8done

ntTile4x8suspend:
	VMOVUPD Y0, 0(R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 128(R10)
	VMOVUPD Y3, 160(R10)
	VMOVUPD Y4, 256(R10)
	VMOVUPD Y5, 288(R10)
	VMOVUPD Y6, 384(R10)
	VMOVUPD Y7, 416(R10)

ntTile4x8done:
	VZEROUPPER
	RET

// func ntPack(p *[wideW * tileK]float64, b *float64, bs, w, nv, kl int)
//
// Packs w rows of B, bs values apart from b on, transposed: p[k*w+x] is
// row x's value k, for k < kl. Rows x ≥ nv are copies of row nv−1, so the
// pack never reads past B. Four rows at a time, every four k are a 4×4
// block transposed in registers: VINSERTF128 loads join the same two k of
// rows 0 and 2, and of rows 1 and 3, and a VUNPCKLPD/VUNPCKHPD pair per
// two k interleaves them into four columns, one shuffle per column. The
// last kl mod 4 k gather one value per row. Only moves and shuffles touch
// the values, so every bit, NaN payloads included, is copied as it is.
TEXT ·ntPack(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ bs+16(FP), R8
	MOVQ w+24(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	XORQ R11, R11

ntPackGroup:
	MOVQ    nv+32(FP), R10
	DECQ    R10
	MOVQ    R11, AX
	CMPQ    AX, R10
	CMOVQGT R10, AX
	IMULQ   R8, AX
	ADDQ    SI, AX
	LEAQ    1(R11), BX
	CMPQ    BX, R10
	CMOVQGT R10, BX
	IMULQ   R8, BX
	ADDQ    SI, BX
	LEAQ    2(R11), DX
	CMPQ    DX, R10
	CMOVQGT R10, DX
	IMULQ   R8, DX
	ADDQ    SI, DX
	LEAQ    3(R11), R12
	CMPQ    R12, R10
	CMOVQGT R10, R12
	IMULQ   R8, R12
	ADDQ    SI, R12
	LEAQ    (DI)(R11*8), R13
	LEAQ    (R9)(R9*2), R10
	MOVQ    kl+40(FP), CX
	MOVQ    CX, R14
	SHRQ    $2, R14
	ANDQ    $3, CX
	TESTQ   R14, R14
	JZ      ntPackTail

ntPackQuad:
	VMOVUPD     (AX), X0
	VINSERTF128 $1, (DX), Y0, Y0
	VMOVUPD     (BX), X1
	VINSERTF128 $1, (R12), Y1, Y1
	VMOVUPD     16(AX), X2
	VINSERTF128 $1, 16(DX), Y2, Y2
	VMOVUPD     16(BX), X3
	VINSERTF128 $1, 16(R12), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VMOVUPD     Y4, (R13)
	VMOVUPD     Y5, (R13)(R9*1)
	VMOVUPD     Y6, (R13)(R9*2)
	VMOVUPD     Y7, (R13)(R10*1)
	ADDQ        $32, AX
	ADDQ        $32, BX
	ADDQ        $32, DX
	ADDQ        $32, R12
	LEAQ        (R13)(R9*4), R13
	DECQ        R14
	JNZ         ntPackQuad

ntPackTail:
	TESTQ       CX, CX
	JZ          ntPackNext
	VMOVSD      (AX), X0
	VMOVHPD     (BX), X0, X0
	VMOVSD      (DX), X1
	VMOVHPD     (R12), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPD     Y0, (R13)
	ADDQ        $8, AX
	ADDQ        $8, BX
	ADDQ        $8, DX
	ADDQ        $8, R12
	ADDQ        R9, R13
	DECQ        CX
	JMP         ntPackTail

ntPackNext:
	ADDQ $4, R11
	CMPQ R11, w+24(FP)
	JLT  ntPackGroup
	VZEROUPPER
	RET

// func addTo(d, s *float64, n int)
//
// d[i] = d[i] + s[i] for i < n, d the first operand of every add (VADDPD
// and, for the last n mod 4, VADDSD), as in the Go loop's d[i] += s[i]:
// sixteen values a step, then four, then one.
TEXT ·addTo(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ n+16(FP), CX

addTo16:
	CMPQ    CX, $16
	JLT     addTo4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  0(SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     addTo16

addTo4:
	CMPQ    CX, $4
	JLT     addTo1
	VMOVUPD 0(DI), Y0
	VADDPD  0(SI), Y0, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     addTo4

addTo1:
	TESTQ  CX, CX
	JZ     addToDone
	VMOVSD 0(DI), X0
	VADDSD 0(SI), X0, X0
	VMOVSD X0, 0(DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    addTo1

addToDone:
	VZEROUPPER
	RET


// func anyZero(x *float64, n int) bool
//
// Reports whether one of x[0] … x[n-1] is ±0, for n a multiple of 4.
// VCMPPD with predicate EQ_OQ sets a lane to all ones exactly where the
// value equals zero, which ±0 do and NaN does not. The loop ORs the masks
// of 16 values and tests them once (VPTEST), leaving at the first group
// that holds a zero; the last n mod 16 values go 4 at a time.
TEXT ·anyZero(SB), NOSPLIT, $0-17
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPD Y15, Y15, Y15

zloop16:
	CMPQ    CX, $16
	JLT     zloop4
	VCMPPD  $0, 0(SI), Y15, Y0
	VCMPPD  $0, 32(SI), Y15, Y1
	VCMPPD  $0, 64(SI), Y15, Y2
	VCMPPD  $0, 96(SI), Y15, Y3
	VORPD   Y1, Y0, Y0
	VORPD   Y3, Y2, Y2
	VORPD   Y2, Y0, Y0
	VPTEST  Y0, Y0
	JNZ     zfound
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     zloop16

zloop4:
	TESTQ   CX, CX
	JZ      znone
	VCMPPD  $0, 0(SI), Y15, Y0
	VPTEST  Y0, Y0
	JNZ     zfound
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     zloop4

znone:
	MOVB $0, ret+16(FP)
	VZEROUPPER
	RET

zfound:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-20
	MOVL  leaf+0(FP), AX
	MOVL  sub+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
