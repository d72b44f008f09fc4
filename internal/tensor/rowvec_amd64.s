//go:build amd64

#include "textflag.h"

// Four-lane AVX2 float64 forms of the training step's row loops: the
// AdamW update (optim), the two-rank reduce (comm) and LayerNorm
// forward / backward (nn). Each widens float32 to float64, runs the
// scalar loop's IEEE operations one for one — separate multiply, add,
// divide and square root, no FMA contraction — and narrows again, so
// every lane holds the scalar loop's exact bits (rowkernels_test.go).
// No kernel touches memory outside the element ranges it is given.

DATA rv_one+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL rv_one(SB), RODATA|NOPTR, $8

// func adamwVec(w, grad, m, v *float32, n int, c *AdamWCoef)
//
// n (a multiple of 4) elements of optim's adamwJob.Tile:
//   m' = β1·m + (1-β1)·g;  v' = β2·v + ((1-β2)·g)·g
//   w' = w - lr·((m'/bc1)/(√(v'/bc2)+ε) + wd·w)
TEXT ·adamwVec(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), CX
	MOVQ n+32(FP), BX
	MOVQ c+40(FP), AX
	VBROADCASTSD rv_one(SB), Y15
	VBROADCASTSD 0(AX), Y7   // β1
	VSUBPD       Y7, Y15, Y8 // 1-β1
	VBROADCASTSD 8(AX), Y9   // β2
	VSUBPD       Y9, Y15, Y10 // 1-β2
	VBROADCASTSD 16(AX), Y11 // ε
	VBROADCASTSD 24(AX), Y12 // wd
	VBROADCASTSD 32(AX), Y13 // bc1
	VBROADCASTSD 40(AX), Y14 // bc2
	VBROADCASTSD 48(AX), Y15 // lr
	SHRQ $2, BX

adamw_loop:
	VCVTPS2PD  (SI), Y0     // g
	VCVTPS2PD  (DX), Y1
	VMULPD     Y7, Y1, Y1   // β1·m
	VMULPD     Y8, Y0, Y2   // (1-β1)·g
	VADDPD     Y2, Y1, Y1   // m'
	VCVTPS2PD  (CX), Y3
	VMULPD     Y9, Y3, Y3   // β2·v
	VMULPD     Y10, Y0, Y4  // (1-β2)·g
	VMULPD     Y0, Y4, Y4   // ·g
	VADDPD     Y4, Y3, Y3   // v'
	VCVTPD2PSY Y1, X5
	VMOVUPS    X5, (DX)
	VCVTPD2PSY Y3, X5
	VMOVUPS    X5, (CX)
	VDIVPD     Y13, Y1, Y1  // m'/bc1
	VDIVPD     Y14, Y3, Y3  // v'/bc2
	VSQRTPD    Y3, Y3
	VADDPD     Y11, Y3, Y3  // +ε
	VDIVPD     Y3, Y1, Y1
	VCVTPS2PD  (DI), Y6     // w
	VMULPD     Y12, Y6, Y2  // wd·w
	VADDPD     Y2, Y1, Y1
	VMULPD     Y15, Y1, Y1  // lr·(…)
	VSUBPD     Y1, Y6, Y6
	VCVTPD2PSY Y6, X5
	VMOVUPS    X5, (DI)
	ADDQ       $16, DI
	ADDQ       $16, SI
	ADDQ       $16, DX
	ADDQ       $16, CX
	DECQ       BX
	JNZ        adamw_loop
	VZEROUPPER
	RET

// func sum2Vec(dst, a, b *float32, n int, scale float64)
//
// n (a multiple of 4) elements of comm's two-rank reduce:
// dst = float32((float64(a)+float64(b))·scale). dst may be a or b.
TEXT ·sum2Vec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD scale+32(FP), Y2
	SHRQ $2, CX

sum2_loop:
	VCVTPS2PD  (SI), Y0
	VCVTPS2PD  (DX), Y1
	VADDPD     Y1, Y0, Y0
	VMULPD     Y2, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DX
	ADDQ       $16, DI
	DECQ       CX
	JNZ        sum2_loop
	VZEROUPPER
	RET

// LOAD_COLS reads columns c…c+3 of four consecutive rows — p points at
// row 0's column c, R12 is the row stride in bytes, R13 three times it
// — and transposes them: X4…X7 become columns c…c+3, lane i = row i.
// That puts one row in each float64 lane after widening, so a sum
// *along* a row stays the scalar loop's sequential chain while four
// rows advance together. Clobbers X12…X15.
#define LOAD_COLS(p) \
	VMOVUPS   (p), X4; \
	VMOVUPS   (p)(R12*1), X5; \
	VMOVUPS   (p)(R12*2), X6; \
	VMOVUPS   (p)(R13*1), X7; \
	VUNPCKLPS X5, X4, X12; \
	VUNPCKHPS X5, X4, X13; \
	VUNPCKLPS X7, X6, X14; \
	VUNPCKHPS X7, X6, X15; \
	VMOVLHPS  X14, X12, X4; \
	VMOVHLPS  X12, X14, X5; \
	VMOVLHPS  X15, X13, X6; \
	VMOVHLPS  X13, X15, X7

// func lnFwdVec(out, xhat *float32, rstd *float64, x, gamma, beta *float32, eps float64, dim, groups int)
//
// nn.LayerNormRows over `groups` groups of four rows, dim (a multiple
// of 4) wide. Per group: mean and variance with one row per lane, each
// lane adding its row's columns in order; then x̂ = float32((x-μ)·rs)
// and out = x̂·γ + β (float32 multiply, then add) along each row. rstd
// may be nil; xhat may be out (the x̂ store lands first).
TEXT ·lnFwdVec(SB), NOSPLIT, $64-72
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), R8
	MOVQ rstd+16(FP), R9
	MOVQ x+24(FP), SI
	MOVQ gamma+32(FP), R10
	MOVQ beta+40(FP), R11
	MOVQ dim+56(FP), AX
	MOVQ groups+64(FP), BX
	VBROADCASTSD eps+48(FP), Y3
	VCVTSI2SDQ   AX, X2, X2
	VBROADCASTSD X2, Y2     // float64(dim)
	MOVQ AX, R12
	SHLQ $2, R12            // row stride in bytes
	LEAQ (R12)(R12*2), R13
	SHRQ $2, AX             // four-column blocks per row

lnf_group:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, DX
	MOVQ   AX, CX

lnf_mean:
	LOAD_COLS(DX)
	VCVTPS2PD X4, Y4
	VADDPD    Y4, Y0, Y0
	VCVTPS2PD X5, Y5
	VADDPD    Y5, Y0, Y0
	VCVTPS2PD X6, Y6
	VADDPD    Y6, Y0, Y0
	VCVTPS2PD X7, Y7
	VADDPD    Y7, Y0, Y0
	ADDQ      $16, DX
	DECQ      CX
	JNZ       lnf_mean
	VDIVPD    Y2, Y0, Y0    // μ

	VXORPD Y1, Y1, Y1
	MOVQ   SI, DX
	MOVQ   AX, CX

lnf_var:
	LOAD_COLS(DX)
	VCVTPS2PD X4, Y4
	VSUBPD    Y0, Y4, Y4
	VMULPD    Y4, Y4, Y4
	VADDPD    Y4, Y1, Y1
	VCVTPS2PD X5, Y5
	VSUBPD    Y0, Y5, Y5
	VMULPD    Y5, Y5, Y5
	VADDPD    Y5, Y1, Y1
	VCVTPS2PD X6, Y6
	VSUBPD    Y0, Y6, Y6
	VMULPD    Y6, Y6, Y6
	VADDPD    Y6, Y1, Y1
	VCVTPS2PD X7, Y7
	VSUBPD    Y0, Y7, Y7
	VMULPD    Y7, Y7, Y7
	VADDPD    Y7, Y1, Y1
	ADDQ      $16, DX
	DECQ      CX
	JNZ       lnf_var
	VDIVPD       Y2, Y1, Y1 // σ²
	VADDPD       Y3, Y1, Y1
	VSQRTPD      Y1, Y1
	VBROADCASTSD rv_one(SB), Y5
	VDIVPD       Y1, Y5, Y1 // rs = 1/√(σ²+ε)

	VMOVUPD Y0, mean-64(SP)
	VMOVUPD Y1, rs-32(SP)
	TESTQ   R9, R9
	JZ      lnf_affine
	VMOVUPD Y1, (R9)
	ADDQ    $32, R9

lnf_affine:
	XORQ CX, CX

lnf_row:
	VBROADCASTSD mean-64(SP)(CX*8), Y4
	VBROADCASTSD rs-32(SP)(CX*8), Y5
	XORQ         DX, DX

lnf_col:
	VCVTPS2PD  (SI)(DX*1), Y6
	VSUBPD     Y4, Y6, Y6
	VMULPD     Y5, Y6, Y6
	VCVTPD2PSY Y6, X6       // x̂
	VMOVUPS    X6, (R8)(DX*1)
	VMULPS     (R10)(DX*1), X6, X6
	VADDPS     (R11)(DX*1), X6, X6
	VMOVUPS    X6, (DI)(DX*1)
	ADDQ       $16, DX
	CMPQ       DX, R12
	JLT        lnf_col
	ADDQ       R12, SI
	ADDQ       R12, R8
	ADDQ       R12, DI
	INCQ       CX
	CMPQ       CX, $4
	JLT        lnf_row
	DECQ       BX
	JNZ        lnf_group
	VZEROUPPER
	RET

// func lnDxVec(dx, dy, xhat, gamma *float32, rstd *float64, dim, groups int)
//
// The input gradient of nn's lnBwdJob.Tile over `groups` groups of
// four rows, dim (a multiple of 4) wide: with d = dy·γ in float64,
//   dx = float32(rstd·((d - Σd/dim) - x̂·(Σd·x̂/dim)))
// the two row sums taken with one row per lane as in lnFwdVec.
TEXT ·lnDxVec(SB), NOSPLIT, $64-56
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), R8
	MOVQ gamma+24(FP), R10
	MOVQ rstd+32(FP), R9
	MOVQ dim+40(FP), AX
	MOVQ groups+48(FP), BX
	VCVTSI2SDQ   AX, X2, X2
	VMOVSD       rv_one(SB), X3
	VDIVSD       X2, X3, X2
	VBROADCASTSD X2, Y2     // 1/float64(dim)
	MOVQ AX, R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	SHRQ $2, AX

lnb_group:
	VXORPD Y0, Y0, Y0       // Σd
	VXORPD Y1, Y1, Y1       // Σd·x̂
	MOVQ   SI, DX
	MOVQ   R8, R11
	MOVQ   AX, CX

lnb_sums:
	LOAD_COLS(DX)
	VBROADCASTSS 0(R10), X12
	VCVTPS2PD    X12, Y12
	VCVTPS2PD    X4, Y8
	VMULPD       Y12, Y8, Y8
	VADDPD       Y8, Y0, Y0
	VBROADCASTSS 4(R10), X12
	VCVTPS2PD    X12, Y12
	VCVTPS2PD    X5, Y9
	VMULPD       Y12, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSS 8(R10), X12
	VCVTPS2PD    X12, Y12
	VCVTPS2PD    X6, Y10
	VMULPD       Y12, Y10, Y10
	VADDPD       Y10, Y0, Y0
	VBROADCASTSS 12(R10), X12
	VCVTPS2PD    X12, Y12
	VCVTPS2PD    X7, Y11
	VMULPD       Y12, Y11, Y11
	VADDPD       Y11, Y0, Y0
	LOAD_COLS(R11)
	VCVTPS2PD X4, Y4
	VMULPD    Y4, Y8, Y8
	VADDPD    Y8, Y1, Y1
	VCVTPS2PD X5, Y5
	VMULPD    Y5, Y9, Y9
	VADDPD    Y9, Y1, Y1
	VCVTPS2PD X6, Y6
	VMULPD    Y6, Y10, Y10
	VADDPD    Y10, Y1, Y1
	VCVTPS2PD X7, Y7
	VMULPD    Y7, Y11, Y11
	VADDPD    Y11, Y1, Y1
	ADDQ      $16, DX
	ADDQ      $16, R11
	ADDQ      $16, R10
	DECQ      CX
	JNZ       lnb_sums
	SUBQ      R12, R10      // γ walked one row's width

	VMULPD  Y0, Y2, Y0
	VMULPD  Y1, Y2, Y1
	VMOVUPD Y0, a-64(SP)
	VMOVUPD Y1, b-32(SP)
	XORQ    CX, CX

lnb_row:
	VBROADCASTSD a-64(SP)(CX*8), Y4
	VBROADCASTSD b-32(SP)(CX*8), Y5
	VBROADCASTSD (R9)(CX*8), Y6
	XORQ         DX, DX

lnb_col:
	VCVTPS2PD  (SI)(DX*1), Y8
	VCVTPS2PD  (R10)(DX*1), Y9
	VMULPD     Y9, Y8, Y8   // d
	VSUBPD     Y4, Y8, Y8
	VCVTPS2PD  (R8)(DX*1), Y9
	VMULPD     Y5, Y9, Y9
	VSUBPD     Y9, Y8, Y8
	VMULPD     Y6, Y8, Y8
	VCVTPD2PSY Y8, X8
	VMOVUPS    X8, (DI)(DX*1)
	ADDQ       $16, DX
	CMPQ       DX, R12
	JLT        lnb_col
	ADDQ       R12, SI
	ADDQ       R12, R8
	ADDQ       R12, DI
	INCQ       CX
	CMPQ       CX, $4
	JLT        lnb_row
	ADDQ       $32, R9
	DECQ       BX
	JNZ        lnb_group
	VZEROUPPER
	RET

// func lnParamGradVec(dg, db, dy, xhat *float32, dim, cols, rows, chunk int)
//
// The dγ/dβ reduction of nn's lnBwdJob.paramGrads over columns
// [0, cols), cols a multiple of 8, of `rows` rows dim wide: each run of
// `chunk` rows (the last may be short) is summed from zero in row order
// — Σ dy·x̂ and Σ dy, float32 multiply then add — and the partial is
// added to dg / db, runs in order.
TEXT ·lnParamGradVec(SB), NOSPLIT, $0-64
	MOVQ dg+0(FP), DI
	MOVQ db+8(FP), SI
	MOVQ dy+16(FP), DX
	MOVQ xhat+24(FP), CX
	MOVQ dim+32(FP), R8
	MOVQ cols+40(FP), BX
	MOVQ rows+48(FP), R9
	MOVQ chunk+56(FP), R10
	SHLQ $2, R8             // row stride in bytes
	SHRQ $3, BX

lnp_block:
	VMOVUPS (DI), Y4
	VMOVUPS (SI), Y5
	MOVQ    DX, R11
	MOVQ    CX, R12
	MOVQ    R9, R13         // rows left

lnp_run:
	MOVQ    R10, AX
	CMPQ    R13, AX
	CMOVQLT R13, AX         // this run's rows
	SUBQ    AX, R13
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1

lnp_row:
	VMOVUPS (R11), Y2
	VMULPS  (R12), Y2, Y3
	VADDPS  Y3, Y0, Y0
	VADDPS  Y2, Y1, Y1
	ADDQ    R8, R11
	ADDQ    R8, R12
	DECQ    AX
	JNZ     lnp_row
	VADDPS  Y0, Y4, Y4
	VADDPS  Y1, Y5, Y5
	TESTQ   R13, R13
	JNZ     lnp_run
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, CX
	DECQ    BX
	JNZ     lnp_block
	VZEROUPPER
	RET
