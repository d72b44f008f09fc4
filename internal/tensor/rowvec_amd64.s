//go:build amd64

#include "textflag.h"

// AVX2 forms of the training step's row loops: the AdamW update
// (optim) and LayerNorm forward / backward (nn) in eight float32 lanes,
// the two-rank reduce (comm) and the gradient's sum of squares in
// float64 lanes. Each runs its Go loop's IEEE operations one for one —
// separate multiply, add, divide and square root, no FMA contraction
// (the sum of squares' FMA rounds as its add: the product is exact) —
// so every lane holds the loop's exact bits (rowkernels_test.go). The
// LayerNorm loops keep each row sum in eight partial sums, column c in
// lane c%8, and add them by tensor.HSum8's tree; the kernels run four
// rows side by side so that the rows' dependency chains overlap and one
// HSUM4 and one packed divide / square root serve all four. No kernel
// touches memory outside the element ranges it is given.

// func adamwVec(w, grad, m, v *float32, n int, c *AdamWCoef)
//
// n (a multiple of 8) elements of optim's adamwJob.Tile:
//   m' = β1·m + (1-β1)·g;  v' = β2·v + ((1-β2)·g)·g
//   w' = w - lr·((m'·ibc1)/(√(v'·ibc2)+ε) + wd·w)
TEXT ·adamwVec(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), CX
	MOVQ n+32(FP), BX
	MOVQ c+40(FP), AX
	VBROADCASTSS 0(AX), Y7   // β1
	VBROADCASTSS 4(AX), Y8   // 1-β1
	VBROADCASTSS 8(AX), Y9   // β2
	VBROADCASTSS 12(AX), Y10 // 1-β2
	VBROADCASTSS 16(AX), Y11 // ibc1
	VBROADCASTSS 20(AX), Y12 // ibc2
	VBROADCASTSS 24(AX), Y13 // ε
	VBROADCASTSS 28(AX), Y14 // wd
	VBROADCASTSS 32(AX), Y15 // lr
	XORQ AX, AX

	PCALIGN $64
adamw_loop:
	VMOVUPS (SI)(AX*4), Y0     // g
	VMULPS  (DX)(AX*4), Y7, Y1 // β1·m
	VMULPS  Y0, Y8, Y2         // (1-β1)·g
	VADDPS  Y2, Y1, Y1         // m'
	VMULPS  (CX)(AX*4), Y9, Y3 // β2·v
	VMULPS  Y0, Y10, Y4        // (1-β2)·g
	VMULPS  Y0, Y4, Y4         // ·g
	VADDPS  Y4, Y3, Y3         // v'
	VMOVUPS Y1, (DX)(AX*4)
	VMOVUPS Y3, (CX)(AX*4)
	VMULPS  Y11, Y1, Y1        // m'·ibc1
	VMULPS  Y12, Y3, Y3        // v'·ibc2
	VSQRTPS Y3, Y3
	VADDPS  Y13, Y3, Y3        // +ε
	VDIVPS  Y3, Y1, Y1
	VMOVUPS (DI)(AX*4), Y6     // w
	VMULPS  Y6, Y14, Y2        // wd·w
	VADDPS  Y2, Y1, Y1
	VMULPS  Y15, Y1, Y1        // lr·(…)
	VSUBPS  Y1, Y6, Y6
	VMOVUPS Y6, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     adamw_loop
	VZEROUPPER
	RET

// SUM2 leaves in xr the four results float32((a+b)·scale) of the
// elements at off(SI) and off(DX), Y2 holding scale; clobbers yt.
#define SUM2(off, yr, xr, yt) \
	VCVTPS2PD  off(SI), yr; \
	VCVTPS2PD  off(DX), yt; \
	VADDPD     yt, yr, yr;  \
	VMULPD     Y2, yr, yr;  \
	VCVTPD2PSY yr, xr

// func sum2Vec(dst, a, b *float32, n int, scale float64, acc bool)
//
// n (a multiple of 8) elements of comm's two-rank reduce:
// r = float32((float64(a)+float64(b))·scale); dst = r, or with acc
// dst += r, one float32 add with dst's old value the first operand, as
// AddSlice takes it. dst may be a or b: a pass loads before it stores.
TEXT ·sum2Vec(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD scale+32(FP), Y2
	MOVBLZX acc+40(FP), BX

	PCALIGN $64
sum2_loop:
	SUM2(0, Y0, X0, Y1)
	SUM2(16, Y3, X3, Y4)
	TESTQ   BX, BX
	JZ      sum2_store
	VMOVUPS (DI), X5
	VMOVUPS 16(DI), X6
	VADDPS  X0, X5, X0
	VADDPS  X3, X6, X3

sum2_store:
	VMOVUPS X0, (DI)
	VMOVUPS X3, 16(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     sum2_loop
	VZEROUPPER
	RET

// func sumSquaresVec(x *float32, n int, s *[16]float64)
//
// SumSquares over n (a multiple of 16) elements: element i squared and
// added, in float64, to partial sum i%16 — lane i%4 of accumulator
// (i%16)/4 — which are stored to s. A float32's square is exact in
// float64, so each fused multiply-add rounds once, as the loop's add.
TEXT ·sumSquaresVec(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVQ   s+16(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SHRQ   $4, CX

	PCALIGN $64
sq_loop:
	VCVTPS2PD   (SI), Y4
	VCVTPS2PD   16(SI), Y5
	VCVTPS2PD   32(SI), Y6
	VCVTPS2PD   48(SI), Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ        $64, SI
	DECQ        CX
	JNZ         sq_loop
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	VMOVUPD     Y2, 64(DI)
	VMOVUPD     Y3, 96(DI)
	VZEROUPPER
	RET

// HSUM4 leaves in xa the sums of ya, yb, yc, yd's eight lanes each (xa
// … xd their low halves), lane k = row k, by tensor.HSum8's tree: lane
// i + lane i+4, then adjacent pairs twice. Clobbers t and xb … xd.
#define HSUM4(ya, yb, yc, yd, xa, xb, xc, xd, t) \
	VEXTRACTF128 $1, ya, t; \
	VADDPS       t, xa, xa; \
	VEXTRACTF128 $1, yb, t; \
	VADDPS       t, xb, xb; \
	VEXTRACTF128 $1, yc, t; \
	VADDPS       t, xc, xc; \
	VEXTRACTF128 $1, yd, t; \
	VADDPS       t, xd, xd; \
	VHADDPS      xb, xa, xa; \
	VHADDPS      xd, xc, xc; \
	VHADDPS      xc, xa, xa

// AFFINE is one row's share of a column vector in lnFwdVec: x̂ =
// (x-μ)·rs stored at h, then x̂·γ + β (γ in Y8, β in Y9) stored at o.
#define AFFINE(x, h, o, mu, rs, t) \
	VMOVUPS x, t;      \
	VSUBPS  mu, t, t;  \
	VMULPS  rs, t, t;  \
	VMOVUPS t, h;      \
	VMULPS  Y8, t, t;  \
	VADDPS  Y9, t, t;  \
	VMOVUPS t, o

// func lnFwdVec(out, xhat, rstd, x, gamma, beta *float32, eps float32, dim, groups int)
//
// nn.LayerNormRows over `groups` groups of four rows, dim (a multiple
// of 8) wide. Per row: μ = Σx / dim, then σ² = Σ(x-μ)² / dim, each sum
// in eight lanes along the row — the four rows' sums advance together
// and share one HSUM4 and one divide; rs = 1/√(σ²+ε); then x̂ = (x-μ)·rs
// and out = x̂·γ + β, a column vector of the four rows at a time. rstd
// may be nil; xhat may be out (the x̂ store lands first).
TEXT ·lnFwdVec(SB), NOSPLIT, $40-72
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), R8
	MOVQ         rstd+16(FP), R9
	MOVQ         R9, rstd-40(SP)
	MOVQ         x+24(FP), SI
	MOVQ         gamma+32(FP), R10
	MOVQ         beta+40(FP), R11
	MOVQ         dim+56(FP), R12
	MOVQ         groups+64(FP), BX
	VBROADCASTSS eps+48(FP), X13
	VCVTSI2SSQ   R12, X12, X12
	VBROADCASTSS X12, X12          // float32(dim)
	VBROADCASTSS mvc_one(SB), X14
	SHLQ         $2, R12           // row stride in bytes
	LEAQ         (R12)(R12*2), R13

lnf_group:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, AX
	LEAQ   (SI)(R12*1), CX         // the end of row 0

	PCALIGN $64
lnf_mean:
	VADDPS (AX), Y0, Y0
	VADDPS (AX)(R12*1), Y1, Y1
	VADDPS (AX)(R12*2), Y2, Y2
	VADDPS (AX)(R13*1), Y3, Y3
	ADDQ   $32, AX
	CMPQ   AX, CX
	JLT    lnf_mean
	HSUM4(Y0, Y1, Y2, Y3, X0, X1, X2, X3, X8)
	VDIVPS       X12, X0, X0       // μ, lane = row
	VMOVUPS      X0, mu-32(SP)
	VBROADCASTSS mu-32(SP), Y4
	VBROADCASTSS mu-28(SP), Y5
	VBROADCASTSS mu-24(SP), Y6
	VBROADCASTSS mu-20(SP), Y7
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	MOVQ         SI, AX

	PCALIGN $64
lnf_var:
	VMOVUPS (AX), Y8
	VSUBPS  Y4, Y8, Y8
	VMULPS  Y8, Y8, Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS (AX)(R12*1), Y9
	VSUBPS  Y5, Y9, Y9
	VMULPS  Y9, Y9, Y9
	VADDPS  Y9, Y1, Y1
	VMOVUPS (AX)(R12*2), Y10
	VSUBPS  Y6, Y10, Y10
	VMULPS  Y10, Y10, Y10
	VADDPS  Y10, Y2, Y2
	VMOVUPS (AX)(R13*1), Y11
	VSUBPS  Y7, Y11, Y11
	VMULPS  Y11, Y11, Y11
	VADDPS  Y11, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     lnf_var
	HSUM4(Y0, Y1, Y2, Y3, X0, X1, X2, X3, X8)
	VDIVPS  X12, X0, X0            // σ²
	VADDPS  X13, X0, X0
	VSQRTPS X0, X0
	VDIVPS  X0, X14, X0            // rs
	VMOVUPS X0, rs-16(SP)
	MOVQ    rstd-40(SP), R9
	TESTQ   R9, R9
	JZ      lnf_affine
	VMOVUPS X0, (R9)
	ADDQ    $16, R9
	MOVQ    R9, rstd-40(SP)

lnf_affine:
	VBROADCASTSS rs-16(SP), Y0
	VBROADCASTSS rs-12(SP), Y1
	VBROADCASTSS rs-8(SP), Y2
	VBROADCASTSS rs-4(SP), Y3
	XORQ         DX, DX

	PCALIGN $64
lnf_col:
	LEAQ    (SI)(DX*1), AX
	LEAQ    (R8)(DX*1), CX
	LEAQ    (DI)(DX*1), R9
	VMOVUPS (R10)(DX*1), Y8
	VMOVUPS (R11)(DX*1), Y9
	AFFINE((AX), (CX), (R9), Y4, Y0, Y10)
	AFFINE((AX)(R12*1), (CX)(R12*1), (R9)(R12*1), Y5, Y1, Y11)
	AFFINE((AX)(R12*2), (CX)(R12*2), (R9)(R12*2), Y6, Y2, Y10)
	AFFINE((AX)(R13*1), (CX)(R13*1), (R9)(R13*1), Y7, Y3, Y11)
	ADDQ    $32, DX
	CMPQ    DX, R12
	JLT     lnf_col
	LEAQ    (SI)(R12*4), SI
	LEAQ    (R8)(R12*4), R8
	LEAQ    (DI)(R12*4), DI
	DECQ    BX
	JNZ     lnf_group
	VZEROUPPER
	RET

// DXROW is one row's share of a column vector in lnDxVec (γ in Y12):
// ((dy·γ - a) - x̂·b)·rs stored at dx.
#define DXROW(dy, h, dx, a, b, rs) \
	VMULPS  dy, Y12, Y13;  \
	VSUBPS  a, Y13, Y13;   \
	VMULPS  h, b, Y14;     \
	VSUBPS  Y14, Y13, Y13; \
	VMULPS  rs, Y13, Y13;  \
	VMOVUPS Y13, dx

// DSUMS adds one row's share of a column vector (γ in Y13) to its Σd
// and Σd·x̂ in lnDxVec. Clobbers t.
#define DSUMS(dy, h, sd, sdh, t) \
	VMULPS dy, Y13, t; \
	VADDPS t, sd, sd;  \
	VMULPS h, t, t;    \
	VADDPS t, sdh, sdh

// func lnDxVec(dx, dy, xhat, gamma, rstd *float32, dim, groups int)
//
// The input gradient of nn's lnBwdJob.Tile over `groups` groups of four
// rows, dim (a multiple of 8) wide: with d = dy·γ, a = Σd / dim and
// b = Σd·x̂ / dim (each sum in eight lanes along the row, four rows
// together as in lnFwdVec),
//   dx = ((d - a) - x̂·b)·rstd
TEXT ·lnDxVec(SB), NOSPLIT, $32-56
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), R8
	MOVQ         gamma+24(FP), R10
	MOVQ         rstd+32(FP), R9
	MOVQ         dim+40(FP), R12
	MOVQ         groups+48(FP), BX
	VCVTSI2SSQ   R12, X12, X12
	VBROADCASTSS X12, X12
	VMOVUPS      X12, n-16(SP)     // float32(dim)
	SHLQ         $2, R12
	LEAQ         (R12)(R12*2), R13

lnb_group:
	VXORPS Y0, Y0, Y0              // Σd, rows 0…3
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4              // Σd·x̂
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   DX, DX

	PCALIGN $64
lnb_sums:
	LEAQ    (SI)(DX*1), AX
	LEAQ    (R8)(DX*1), CX
	VMOVUPS (R10)(DX*1), Y13
	DSUMS((AX), (CX), Y0, Y4, Y8)
	DSUMS((AX)(R12*1), (CX)(R12*1), Y1, Y5, Y9)
	DSUMS((AX)(R12*2), (CX)(R12*2), Y2, Y6, Y10)
	DSUMS((AX)(R13*1), (CX)(R13*1), Y3, Y7, Y11)
	ADDQ    $32, DX
	CMPQ    DX, R12
	JLT     lnb_sums
	HSUM4(Y0, Y1, Y2, Y3, X0, X1, X2, X3, X8)
	HSUM4(Y4, Y5, Y6, Y7, X4, X5, X6, X7, X8)
	VDIVPS       n-16(SP), X0, X0  // a, lane = row
	VDIVPS       n-16(SP), X4, X4  // b
	VMOVUPS      X0, ab-32(SP)
	VBROADCASTSS ab-32(SP), Y0
	VBROADCASTSS ab-28(SP), Y1
	VBROADCASTSS ab-24(SP), Y2
	VBROADCASTSS ab-20(SP), Y3
	VMOVUPS      X4, ab-32(SP)
	VBROADCASTSS ab-32(SP), Y4
	VBROADCASTSS ab-28(SP), Y5
	VBROADCASTSS ab-24(SP), Y6
	VBROADCASTSS ab-20(SP), Y7
	VBROADCASTSS (R9), Y8
	VBROADCASTSS 4(R9), Y9
	VBROADCASTSS 8(R9), Y10
	VBROADCASTSS 12(R9), Y11
	XORQ         DX, DX

	PCALIGN $64
lnb_col:
	LEAQ    (SI)(DX*1), AX
	LEAQ    (R8)(DX*1), CX
	LEAQ    (DI)(DX*1), R11
	VMOVUPS (R10)(DX*1), Y12
	DXROW((AX), (CX), (R11), Y0, Y4, Y8)
	DXROW((AX)(R12*1), (CX)(R12*1), (R11)(R12*1), Y1, Y5, Y9)
	DXROW((AX)(R12*2), (CX)(R12*2), (R11)(R12*2), Y2, Y6, Y10)
	DXROW((AX)(R13*1), (CX)(R13*1), (R11)(R13*1), Y3, Y7, Y11)
	ADDQ    $32, DX
	CMPQ    DX, R12
	JLT     lnb_col
	LEAQ    (SI)(R12*4), SI
	LEAQ    (R8)(R12*4), R8
	LEAQ    (DI)(R12*4), DI
	ADDQ    $16, R9
	DECQ    BX
	JNZ     lnb_group
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

	PCALIGN $64
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
