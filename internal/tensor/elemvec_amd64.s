//go:build amd64

#include "textflag.h"
#include "mathvec_amd64.h"

// Eight-lane AVX2 forms of the step's float32 loops: GELU and softmax,
// forward and backward (ops.go; the two forwards run mathfast.go's exp32
// through mathvec_amd64.h's macros), the streaming adds, scale,
// bias-gradient sum and |max| scan (ops.go, tensor.go), the transpose
// (pack.go), the variable aggregation's dots and mix (nn) and the
// quantized strip writer (quantmatmul.go). Each runs the Go loop's IEEE
// operations one for one — separate multiply and add, no FMA
// contraction — so every lane holds the loop's exact bits
// (rowkernels_test.go, quantmatmul_test.go). Softmax's float64 row sums
// are sequential along a row, so those two kernels take four rows at a
// time with one row per float64 lane. No kernel touches memory outside
// the element ranges it is given.

// The constants of the exp32 macros in mathvec_amd64.h (float32 bit
// patterns; see mathfast.go for values).
DATA mvc_log2e+0(SB)/4, $0x3fb8aa3b  // 1.44269504…
DATA mvc_half+0(SB)/4, $0x3f000000   // 0.5, also float32(expP5)
DATA mvc_expc1+0(SB)/4, $0x3f318000  // ln2 high part
DATA mvc_expc2+0(SB)/4, $0xb95e8083  // ln2 low part
DATA mvc_ep0+0(SB)/4, $0x39506967
DATA mvc_ep1+0(SB)/4, $0x3ab743ce
DATA mvc_ep2+0(SB)/4, $0x3c088908
DATA mvc_ep3+0(SB)/4, $0x3d2aa9c1
DATA mvc_ep4+0(SB)/4, $0x3e2aaaaa
DATA mvc_one+0(SB)/4, $0x3f800000
DATA mvc_maxarg+0(SB)/4, $0x42b0c0a5 // 88.3762626647949
DATA mvc_minarg+0(SB)/4, $0xc2aeac50 // -87.3365478515625
DATA mvc_maxf32+0(SB)/4, $0x7f7fffff // MaxFloat32
DATA mvc_i127+0(SB)/4, $0x0000007f   // exponent bias (integer)
DATA mvc_absmask+0(SB)/4, $0x7fffffff
GLOBL mvc_log2e(SB), RODATA|NOPTR, $4
GLOBL mvc_half(SB), RODATA|NOPTR, $4
GLOBL mvc_expc1(SB), RODATA|NOPTR, $4
GLOBL mvc_expc2(SB), RODATA|NOPTR, $4
GLOBL mvc_ep0(SB), RODATA|NOPTR, $4
GLOBL mvc_ep1(SB), RODATA|NOPTR, $4
GLOBL mvc_ep2(SB), RODATA|NOPTR, $4
GLOBL mvc_ep3(SB), RODATA|NOPTR, $4
GLOBL mvc_ep4(SB), RODATA|NOPTR, $4
GLOBL mvc_one(SB), RODATA|NOPTR, $4
GLOBL mvc_maxarg(SB), RODATA|NOPTR, $4
GLOBL mvc_minarg(SB), RODATA|NOPTR, $4
GLOBL mvc_maxf32(SB), RODATA|NOPTR, $4
GLOBL mvc_i127(SB), RODATA|NOPTR, $4
GLOBL mvc_absmask(SB), RODATA|NOPTR, $4

DATA ev_geluk0+0(SB)/4, $0xbfcc422a // float32(-2·√(2/π))
DATA ev_geluk1+0(SB)/4, $0xbd922279 // float32(-2·√(2/π)·0.044715)
DATA ev_geluk3+0(SB)/4, $0xbe5b33b6 // float32(3·the above)
GLOBL ev_geluk0(SB), RODATA|NOPTR, $4
GLOBL ev_geluk1(SB), RODATA|NOPTR, $4
GLOBL ev_geluk3(SB), RODATA|NOPTR, $4
DATA ev_one64+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL ev_one64(SB), RODATA|NOPTR, $8

// PAIR applies op to stream A (first operands) and stream B (second).
#define PAIR(op, a1, a2, b1, b2) \
	op a1, a2; \
	op b1, b2
#define PAIR3(op, a1, a2, a3, b1, b2, b3) \
	op a1, a2, a3; \
	op b1, b2, b3

// func geluVec(dst, sig, x *float32, n int)
//
// n (a multiple of 8) elements of the GELUCachedInto loop:
//   s = 1/(1 + exp32(x·(k0 + k1·x·x)));  sig = s;  dst = x·s
// dst may be x, and sig may be dst (the sig stores land first). Two
// independent vectors run interleaved, A in Y0…Y4 (x, z, nf, r, p) and
// B in Y5…Y9, each step EXPCORE's and EXPCLAMP's, with k1, k0, log2e,
// ½ and 1 held in Y15…Y11 and the other constants broadcast once per
// pair into Y10. When n/8 is odd the last vector takes one pass of the
// one-vector form, EXPCORE and EXPCLAMP, which leave Y11…Y15 alone.
TEXT ·geluVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ sig+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	VBROADCASTSS ev_geluk1(SB), Y15
	VBROADCASTSS ev_geluk0(SB), Y14
	VBROADCASTSS mvc_log2e(SB), Y13
	VBROADCASTSS mvc_one(SB), Y12
	VBROADCASTSS mvc_half(SB), Y11
	MOVQ CX, BX
	ANDQ $-16, BX
	JZ   gelu_one

	PCALIGN $64
gelu_pair:
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y5
	PAIR3(VMULPS, Y0, Y15, Y1, Y5, Y15, Y6)
	PAIR3(VMULPS, Y0, Y1, Y1, Y5, Y6, Y6)
	PAIR3(VADDPS, Y1, Y14, Y1, Y6, Y14, Y6)
	PAIR3(VMULPS, Y1, Y0, Y1, Y6, Y5, Y6) // the exponent z = -2u
	PAIR3(VMULPS, Y13, Y1, Y2, Y13, Y6, Y7)
	PAIR3(VADDPS, Y11, Y2, Y2, Y11, Y7, Y7)
	PAIR3(VROUNDPS, $1, Y2, Y2, $1, Y7, Y7) // nf
	VBROADCASTSS mvc_expc1(SB), Y10
	PAIR3(VMULPS, Y10, Y2, Y3, Y10, Y7, Y8)
	PAIR3(VSUBPS, Y3, Y1, Y3, Y8, Y6, Y8)
	VBROADCASTSS mvc_expc2(SB), Y10
	PAIR3(VMULPS, Y10, Y2, Y4, Y10, Y7, Y9)
	PAIR3(VSUBPS, Y4, Y3, Y3, Y9, Y8, Y8) // r
	VBROADCASTSS mvc_ep0(SB), Y4
	VMOVAPS      Y4, Y9
	PAIR3(VMULPS, Y3, Y4, Y4, Y8, Y9, Y9)
	VBROADCASTSS mvc_ep1(SB), Y10
	PAIR3(VADDPS, Y10, Y4, Y4, Y10, Y9, Y9)
	PAIR3(VMULPS, Y3, Y4, Y4, Y8, Y9, Y9)
	VBROADCASTSS mvc_ep2(SB), Y10
	PAIR3(VADDPS, Y10, Y4, Y4, Y10, Y9, Y9)
	PAIR3(VMULPS, Y3, Y4, Y4, Y8, Y9, Y9)
	VBROADCASTSS mvc_ep3(SB), Y10
	PAIR3(VADDPS, Y10, Y4, Y4, Y10, Y9, Y9)
	PAIR3(VMULPS, Y3, Y4, Y4, Y8, Y9, Y9)
	VBROADCASTSS mvc_ep4(SB), Y10
	PAIR3(VADDPS, Y10, Y4, Y4, Y10, Y9, Y9)
	PAIR3(VMULPS, Y3, Y4, Y4, Y8, Y9, Y9)
	PAIR3(VADDPS, Y11, Y4, Y4, Y11, Y9, Y9)
	PAIR3(VMULPS, Y3, Y4, Y4, Y8, Y9, Y9)
	PAIR3(VMULPS, Y3, Y4, Y4, Y8, Y9, Y9)
	PAIR3(VADDPS, Y3, Y4, Y4, Y8, Y9, Y9)
	PAIR3(VADDPS, Y12, Y4, Y4, Y12, Y9, Y9) // the polynomial
	PAIR(VCVTTPS2DQ, Y2, Y2, Y7, Y7)
	VPBROADCASTD mvc_i127(SB), Y10
	PAIR3(VPADDD, Y10, Y2, Y2, Y10, Y7, Y7)
	PAIR3(VPSLLD, $23, Y2, Y2, $23, Y7, Y7)
	PAIR3(VMULPS, Y2, Y4, Y4, Y7, Y9, Y9) // ·2^nf
	VBROADCASTSS mvc_maxarg(SB), Y10
	VCMPPS       $0x0e, Y10, Y1, Y2
	VCMPPS       $0x0e, Y10, Y6, Y7
	VBROADCASTSS mvc_maxf32(SB), Y10
	VBLENDVPS    Y2, Y10, Y4, Y4
	VBLENDVPS    Y7, Y10, Y9, Y9
	VBROADCASTSS mvc_minarg(SB), Y10
	VCMPPS       $0x01, Y10, Y1, Y2
	VCMPPS       $0x01, Y10, Y6, Y7
	VXORPS       Y10, Y10, Y10
	VBLENDVPS    Y2, Y10, Y4, Y4
	VBLENDVPS    Y7, Y10, Y9, Y9
	PAIR3(VADDPS, Y4, Y12, Y4, Y9, Y12, Y9)
	PAIR3(VDIVPS, Y4, Y12, Y4, Y9, Y12, Y9) // s = σ(2u)
	VMOVUPS Y4, (DX)(AX*4)
	VMOVUPS Y9, 32(DX)(AX*4)
	PAIR3(VMULPS, Y4, Y0, Y4, Y9, Y5, Y9)
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y9, 32(DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     gelu_pair
	CMPQ    AX, CX
	JGE     gelu_done

gelu_one:
	VMOVUPS (SI)(AX*4), Y8
	VMULPS  Y8, Y15, Y0
	VMULPS  Y8, Y0, Y0
	VADDPS  Y0, Y14, Y0
	VMULPS  Y0, Y8, Y0          // the exponent z = -2u
	VMOVAPS Y0, Y1
	EXPCORE
	EXPCLAMP
	VADDPS  Y5, Y12, Y5
	VDIVPS  Y5, Y12, Y5         // s = σ(2u)
	VMOVUPS Y5, (DX)(AX*4)
	VMULPS  Y5, Y8, Y5
	VMOVUPS Y5, (DI)(AX*4)

gelu_done:
	VZEROUPPER
	RET

// func geluBwdVec(dst, x, sig, dy *float32, n int)
//
// n (a multiple of 8) elements of the GELUBackwardCachedInto loop, s the cached σ:
//   dst = dy·(s - x·s·(1-s)·(k0 + k3·x·x))
// dst may be dy.
TEXT ·geluBwdVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sig+16(FP), DX
	MOVQ dy+24(FP), BX
	MOVQ n+32(FP), CX
	XORQ AX, AX
	VBROADCASTSS mvc_one(SB), Y8
	VBROADCASTSS ev_geluk0(SB), Y10
	VBROADCASTSS ev_geluk3(SB), Y11

	PCALIGN $64
gelub_loop:
	VMOVUPS (SI)(AX*4), Y0      // x
	VMOVUPS (DX)(AX*4), Y1      // s
	VMULPS  Y0, Y11, Y2
	VMULPS  Y0, Y2, Y2
	VADDPS  Y2, Y10, Y2         // z' = dz/dx
	VMULPS  Y1, Y0, Y3
	VSUBPS  Y1, Y8, Y4          // 1 - s
	VMULPS  Y4, Y3, Y3
	VMULPS  Y2, Y3, Y3
	VSUBPS  Y3, Y1, Y3
	VMULPS  (BX)(AX*4), Y3, Y3
	VMOVUPS Y3, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     gelub_loop
	VZEROUPPER
	RET

// COLS4x8 transposes columns c…c+7 of four rows held in r0…r3 (lane =
// column) into o0…o3 = columns c|c+4, c+1|c+5, c+2|c+6, c+3|c+7, one
// column per 128-bit half with lane = row. Destroys r0; o0 may be r2 or
// r3 and o3 may be r1.
#define COLS4x8(r0, r1, r2, r3, o0, o1, o2, o3) \
	VUNPCKLPS r1, r0, o2; \
	VUNPCKHPS r1, r0, o3; \
	VUNPCKLPS r3, r2, o1; \
	VUNPCKHPS r3, r2, r0; \
	VUNPCKLPD o1, o2, o0; \
	VUNPCKHPD o1, o2, o1; \
	VUNPCKLPD r0, o3, o2; \
	VUNPCKHPD r0, o3, o3

// SOFTMAXEXP is one row's share of a column block in softmaxVec: e =
// exp32(in - max), stored to out (R11 bytes past in) and left in e.
#define SOFTMAXEXP(p, max, e) \
	VMOVUPS (p), Y0;        \
	VSUBPS  max, Y0, Y0;    \
	VMOVAPS Y0, Y1;         \
	EXPCORE;                \
	EXPCLAMP;               \
	VMOVUPS Y5, (p)(R11*1); \
	VMOVAPS Y5, e

// ADDCOL adds the four rows' entries of one column (float32 in x) to
// their float64 sums in Y6. Clobbers Y2.
#define ADDCOL(x)    \
	VCVTPS2PD x, Y2; \
	VADDPD    Y2, Y6, Y6

// func softmaxVec(out, in *float32, cols, groups int)
//
// softmaxRow over `groups` groups of four rows, cols (a multiple of 8)
// wide. Per group: each row's maximum (every lane starts from the row's
// first element and takes v where v > max, so a NaN there poisons the
// row and a NaN elsewhere is skipped, as in the loop; which zero an
// all-zero-maximum row reports does not reach the output); then, eight
// columns of the four rows at a time, e = exp32(in - max) stored and
// added to the rows' float64 sums in column order; then out = e ·
// float32(1/sum). out may be in.
TEXT ·softmaxVec(SB), NOSPLIT, $16-32
	MOVQ out+0(FP), R11
	MOVQ in+8(FP), SI
	MOVQ cols+16(FP), R12
	MOVQ groups+24(FP), BX
	SUBQ SI, R11            // out - in, bytes
	SHLQ $2, R12            // row stride in bytes
	LEAQ (R12)(R12*2), R13

sm_group:
	MOVQ SI, AX             // the group's first row
	MOVQ SI, R8
	XORQ CX, CX

sm_maxrow:
	VBROADCASTSS (R8), Y0
	XORQ         DX, DX

	PCALIGN $64
sm_maxcol:
	VMOVUPS (R8)(DX*1), Y1
	VMAXPS  Y0, Y1, Y0      // v > max ? v : max
	ADDQ    $32, DX
	CMPQ    DX, R12
	JLT     sm_maxcol
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, row-16(SP)(CX*4)
	ADDQ         R12, R8
	INCQ         CX
	CMPQ         CX, $4
	JLT          sm_maxrow
	VBROADCASTSS row-16(SP), Y12
	VBROADCASTSS row-12(SP), Y13
	VBROADCASTSS row-8(SP), Y14
	VBROADCASTSS row-4(SP), Y15

	LEAQ   (SI)(R12*1), R8
	LEAQ   (SI)(R12*2), R9
	LEAQ   (SI)(R13*1), R10
	VXORPD Y6, Y6, Y6
	XORQ   DX, DX

	PCALIGN $64
sm_block:
	SOFTMAXEXP(SI, Y12, Y8)
	SOFTMAXEXP(R8, Y13, Y9)
	SOFTMAXEXP(R9, Y14, Y10)
	SOFTMAXEXP(R10, Y15, Y11)
	COLS4x8(Y8, Y9, Y10, Y11, Y0, Y1, Y3, Y4)
	ADDCOL(X0)
	ADDCOL(X1)
	ADDCOL(X3)
	ADDCOL(X4)
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y4, X4
	ADDCOL(X0)
	ADDCOL(X1)
	ADDCOL(X3)
	ADDCOL(X4)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, DX
	CMPQ DX, R12
	JLT  sm_block
	ADDQ R13, SI            // the next group's first row

	VBROADCASTSD ev_one64(SB), Y0
	VDIVPD       Y6, Y0, Y0
	VCVTPD2PSY   Y0, X0     // float32(1/sum), lane = row
	VMOVUPS      X0, row-16(SP)
	ADDQ         R11, AX    // the group's first out row
	XORQ         CX, CX

sm_scalerow:
	VBROADCASTSS row-16(SP)(CX*4), Y0
	XORQ         DX, DX

	PCALIGN $64
sm_scalecol:
	VMULPS  (AX)(DX*1), Y0, Y1
	VMOVUPS Y1, (AX)(DX*1)
	ADDQ    $32, DX
	CMPQ    DX, R12
	JLT     sm_scalecol
	ADDQ    R12, AX
	INCQ    CX
	CMPQ    CX, $4
	JLT     sm_scalerow
	DECQ    BX
	JNZ     sm_group
	VZEROUPPER
	RET

// LOADROWS reads eight columns of four consecutive rows at p (row stride
// R12 bytes, R13 three times it) into Y8…Y11.
#define LOADROWS(p) \
	VMOVUPS (p), Y8;         \
	VMOVUPS (p)(R12*1), Y9;  \
	VMOVUPS (p)(R12*2), Y10; \
	VMOVUPS (p)(R13*1), Y11

// DOTCOL adds the four rows' products of one column (float32 y in a, dy
// in b) to their float64 dots in Y12. Clobbers Y13, Y14.
#define DOTCOL(a, b)         \
	VCVTPS2PD a, Y13;        \
	VCVTPS2PD b, Y14;        \
	VMULPD    Y14, Y13, Y13; \
	VADDPD    Y13, Y12, Y12

// func softmaxBwdVec(out, y, dy *float32, cols, groups int)
//
// elemSoftmaxBwd over `groups` groups of four rows, cols (a multiple of
// 8) wide: dot = Σ float64(y)·float64(dy) in column order with one row
// per lane, then out = y·(dy - float32(dot)). out may be dy.
TEXT ·softmaxBwdVec(SB), NOSPLIT, $16-40
	MOVQ out+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ dy+16(FP), R8
	MOVQ cols+24(FP), R12
	MOVQ groups+32(FP), BX
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13

smb_group:
	VXORPD Y12, Y12, Y12
	MOVQ   SI, R9
	MOVQ   R8, R10
	XORQ   DX, DX

	PCALIGN $64
smb_block:
	LOADROWS(R9)
	COLS4x8(Y8, Y9, Y10, Y11, Y0, Y1, Y2, Y3)
	LOADROWS(R10)
	COLS4x8(Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7)
	DOTCOL(X0, X4)
	DOTCOL(X1, X5)
	DOTCOL(X2, X6)
	DOTCOL(X3, X7)
	VEXTRACTF128 $1, Y0, X0
	VEXTRACTF128 $1, Y4, X4
	DOTCOL(X0, X4)
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y5, X5
	DOTCOL(X1, X5)
	VEXTRACTF128 $1, Y2, X2
	VEXTRACTF128 $1, Y6, X6
	DOTCOL(X2, X6)
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y7, X7
	DOTCOL(X3, X7)
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, DX
	CMPQ DX, R12
	JLT  smb_block
	VCVTPD2PSY Y12, X0      // float32(dot), lane = row
	VMOVUPS    X0, dot-16(SP)
	XORQ       CX, CX

smb_row:
	VBROADCASTSS dot-16(SP)(CX*4), Y0
	XORQ         DX, DX

	PCALIGN $64
smb_col:
	VMOVUPS (R8)(DX*1), Y1
	VSUBPS  Y0, Y1, Y1
	VMULPS  (SI)(DX*1), Y1, Y1
	VMOVUPS Y1, (DI)(DX*1)
	ADDQ    $32, DX
	CMPQ    DX, R12
	JLT     smb_col
	ADDQ    R12, SI
	ADDQ    R12, R8
	ADDQ    R12, DI
	INCQ    CX
	CMPQ    CX, $4
	JLT     smb_row
	DECQ    BX
	JNZ     smb_group
	VZEROUPPER
	RET

// func addVec(dst, a, b *float32, n int)
//
// dst = a + b over n (a multiple of 8) elements; dst may be a or b.
TEXT ·addVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

	PCALIGN $64
add_loop:
	VMOVUPS (SI)(AX*4), Y0
	VADDPS  (DX)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     add_loop
	VZEROUPPER
	RET

// func scaleVec(dst *float32, n int, s float32)
//
// dst *= s over n (a multiple of 8) elements.
TEXT ·scaleVec(SB), NOSPLIT, $0-20
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS s+16(FP), Y1
	XORQ AX, AX

	PCALIGN $64
scale_loop:
	VMULPS  (DI)(AX*4), Y1, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     scale_loop
	VZEROUPPER
	RET

// func maxAbsVec(p *float32, n int) uint32
//
// The largest sign-cleared bit pattern among n (a multiple of 8)
// elements — an integer maximum, so its order is free.
TEXT ·maxAbsVec(SB), NOSPLIT, $0-20
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VPBROADCASTD mvc_absmask(SB), Y2
	VPXOR        Y0, Y0, Y0
	XORQ         AX, AX

	PCALIGN $64
maxabs_loop:
	VPAND   (SI)(AX*4), Y2, Y1
	VPMAXUD Y1, Y0, Y0
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     maxabs_loop
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+16(FP)
	VZEROUPPER
	RET

// func sumRowsVec(dst, t *float32, rows, cols, stride int)
//
// dst[c] += t[r·stride + c] for r = 0…rows-1 in that order, over
// columns [0, cols), cols a multiple of 8: thirty-two columns at a time
// while they last (four independent add chains), then eight.
TEXT ·sumRowsVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), BX
	MOVQ stride+32(FP), R9
	SHLQ $2, R9

sumrows_32:
	CMPQ    BX, $32
	JLT     sumrows_8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, DX
	MOVQ    R8, CX

	PCALIGN $64
sumrows_32row:
	VADDPS (DX), Y0, Y0
	VADDPS 32(DX), Y1, Y1
	VADDPS 64(DX), Y2, Y2
	VADDPS 96(DX), Y3, Y3
	ADDQ   R9, DX
	DECQ   CX
	JNZ    sumrows_32row
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, BX
	JMP     sumrows_32

sumrows_8:
	TESTQ   BX, BX
	JZ      sumrows_done
	VMOVUPS (DI), Y0
	MOVQ    SI, DX
	MOVQ    R8, CX

	PCALIGN $64
sumrows_8row:
	VADDPS (DX), Y0, Y0
	ADDQ   R9, DX
	DECQ   CX
	JNZ    sumrows_8row
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, BX
	JMP     sumrows_8

sumrows_done:
	VZEROUPPER
	RET

// HALVES loads the four columns at lo (row r+i) and hi (row r+4+i) into
// the two halves of y.
#define HALVES(lo, hi, y, x) \
	VMOVUPS     lo, x \
	VINSERTF128 $1, hi, y, y

// func transposeVec(dst, src *float32, rows, ld, r8, c8 int)
//
// dst[c·rows + r] = src[r·ld + c] over r < r8, c < c8 (multiples of
// 8), one 8×8 block at a time: each YMM loads columns c…c+3 (then
// c+4…c+7) of rows r+i and r+4+i into its two halves, so COLS4x8 leaves
// one whole column of the block per register.
TEXT ·transposeVec(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), AX
	MOVQ src+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ ld+24(FP), R12
	MOVQ r8+32(FP), BX
	SHLQ $2, R10            // dst row stride in bytes
	SHLQ $2, R12            // src row stride in bytes
	LEAQ (R10)(R10*2), R11
	LEAQ (R12)(R12*2), R13
	SHRQ $3, BX

tr_rows:
	MOVQ R8, SI
	MOVQ AX, DI
	MOVQ c8+40(FP), CX
	SHRQ $3, CX

	PCALIGN $64
tr_block:
	LEAQ (SI)(R12*4), DX    // row r+4
	LEAQ (DI)(R10*4), R9    // dst row c+4
	HALVES((SI), (DX), Y0, X0)
	HALVES((SI)(R12*1), (DX)(R12*1), Y1, X1)
	HALVES((SI)(R12*2), (DX)(R12*2), Y2, X2)
	HALVES((SI)(R13*1), (DX)(R13*1), Y3, X3)
	HALVES(16(SI), 16(DX), Y4, X4)
	HALVES(16(SI)(R12*1), 16(DX)(R12*1), Y5, X5)
	HALVES(16(SI)(R12*2), 16(DX)(R12*2), Y6, X6)
	HALVES(16(SI)(R13*1), 16(DX)(R13*1), Y7, X7)
	COLS4x8(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	VMOVUPS     Y8, (DI)
	VMOVUPS     Y9, (DI)(R10*1)
	VMOVUPS     Y10, (DI)(R10*2)
	VMOVUPS     Y11, (DI)(R11*1)
	COLS4x8(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVUPS     Y8, (R9)
	VMOVUPS     Y9, (R9)(R10*1)
	VMOVUPS     Y10, (R9)(R10*2)
	VMOVUPS     Y11, (R9)(R11*1)
	ADDQ        $32, SI
	LEAQ        (DI)(R10*8), DI
	DECQ        CX
	JNZ         tr_block
	LEAQ        (R8)(R12*8), R8
	ADDQ        $32, AX
	DECQ        BX
	JNZ         tr_rows
	VZEROUPPER
	RET

// TOKCOLS loads columns j…j+3 (off bytes past p and q) of eight token
// rows — p, p+ld, p+2·ld, p+3·ld and q = p+4·ld on, ld bytes in R12,
// 3·ld in R13 — and leaves column j+i, lane = token, in oi.
#define TOKCOLS(p, q, off, o0, o1, o2, o3) \
	HALVES(off(p), off(q), Y0, X0)                 \
	HALVES(off(p)(R12*1), off(q)(R12*1), Y1, X1)   \
	HALVES(off(p)(R12*2), off(q)(R12*2), Y2, X2)   \
	HALVES(off(p)(R13*1), off(q)(R13*1), Y3, X3)   \
	COLS4x8(Y0, Y1, Y2, Y3, o0, o1, o2, o3)

// DOT1 and DOT2 take one step of the chain, acc += col·kq[j] with kq[j]
// at m, for channel A (Y14) or channels A and B (Y14, Y15).
#define DOT1(m, ca) \
	VBROADCASTSS m, Y12;  \
	VMULPS       Y12, ca, ca; \
	VADDPS       ca, Y14, Y14
#define DOT2(m, ca, cb) \
	DOT1(m, ca);               \
	VMULPS       Y12, cb, cb; \
	VADDPS       cb, Y15, Y15

// LANES stores the eight lanes of y to AX, AX+R9, …, AX+7·R9 (x is y's
// low half); clobbers AX, BX.
#define LANES(y, x) \
	VMOVSS       x, (AX)          \
	VEXTRACTPS   $1, x, (AX)(R9*1) \
	VEXTRACTPS   $2, x, (AX)(R9*2) \
	LEAQ         (AX)(R9*2), BX   \
	VEXTRACTPS   $3, x, (BX)(R9*1) \
	LEAQ         (AX)(R9*4), AX   \
	VEXTRACTF128 $1, y, x         \
	VMOVSS       x, (AX)          \
	VEXTRACTPS   $1, x, (AX)(R9*1) \
	VEXTRACTPS   $2, x, (AX)(R9*2) \
	LEAQ         (AX)(R9*2), BX   \
	VEXTRACTPS   $3, x, (BX)(R9*1)

// func aggDotVec(w, e, kq *float32, c, stride, ld, d8 int)
//
// The channel dots of nn.AggregateTokens for eight tokens: token l's
// row of channel i starts at e[i·stride + l·ld], and
//   w[l·c + i] = Σ_{j<d8} e[i·stride + l·ld + j]·kq[j]
// is lane l's chain from +0 in j order, separate multiply and add. The
// eight rows of a channel are transposed four columns at a time so that
// a lane is a token; two channels run side by side, sharing kq[j].
TEXT ·aggDotVec(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ e+8(FP), SI
	MOVQ c+24(FP), CX
	MOVQ stride+32(FP), R8
	MOVQ ld+40(FP), R12
	LEAQ (CX*4), R9         // w's lane stride in bytes
	SHLQ $2, R8             // channel stride in bytes
	SHLQ $2, R12            // token row stride in bytes
	LEAQ (R12)(R12*2), R13

dot_pair:
	CMPQ   CX, $2
	JLT    dot_one
	LEAQ   (SI)(R12*4), DX
	LEAQ   (SI)(R8*1), R10
	LEAQ   (R10)(R12*4), R11
	MOVQ   kq+16(FP), BX
	MOVQ   d8+48(FP), AX
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

	PCALIGN $64
dot_pair_j:
	TOKCOLS(SI, DX, 0, Y4, Y5, Y6, Y7)
	TOKCOLS(R10, R11, 0, Y8, Y9, Y10, Y11)
	DOT2(0(BX), Y4, Y8)
	DOT2(4(BX), Y5, Y9)
	DOT2(8(BX), Y6, Y10)
	DOT2(12(BX), Y7, Y11)
	TOKCOLS(SI, DX, 16, Y4, Y5, Y6, Y7)
	TOKCOLS(R10, R11, 16, Y8, Y9, Y10, Y11)
	DOT2(16(BX), Y4, Y8)
	DOT2(20(BX), Y5, Y9)
	DOT2(24(BX), Y6, Y10)
	DOT2(28(BX), Y7, Y11)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, BX
	SUBQ $8, AX
	JNZ  dot_pair_j
	MOVQ DI, AX
	LANES(Y14, X14)
	LEAQ 4(DI), AX
	LANES(Y15, X15)
	MOVQ d8+48(FP), AX      // SI back to its channel's first column, on by two channels
	SHLQ $2, AX
	SUBQ AX, SI
	LEAQ (SI)(R8*2), SI
	ADDQ $8, DI
	SUBQ $2, CX
	JMP  dot_pair

dot_one:
	TESTQ  CX, CX
	JZ     dot_done
	LEAQ   (SI)(R12*4), DX
	MOVQ   kq+16(FP), BX
	MOVQ   d8+48(FP), AX
	VXORPS Y14, Y14, Y14

	PCALIGN $64
dot_one_j:
	TOKCOLS(SI, DX, 0, Y4, Y5, Y6, Y7)
	DOT1(0(BX), Y4)
	DOT1(4(BX), Y5)
	DOT1(8(BX), Y6)
	DOT1(12(BX), Y7)
	TOKCOLS(SI, DX, 16, Y4, Y5, Y6, Y7)
	DOT1(16(BX), Y4)
	DOT1(20(BX), Y5)
	DOT1(24(BX), Y6)
	DOT1(28(BX), Y7)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	SUBQ $8, AX
	JNZ  dot_one_j
	MOVQ DI, AX
	LANES(Y14, X14)

dot_done:
	VZEROUPPER
	RET

// MIXCOL adds column block off of channel DX, scaled by Y8, into acc.
#define MIXCOL(off, t, acc) \
	VMULPS off(DX), Y8, t; \
	VADDPS t, acc, acc

// func aggMixVec(out, e, a *float32, c, stride, d8 int)
//
// The mix of nn.AggregateTokens for one token over d8 columns:
//   out[j] = Σ_i a[i]·e[i·stride + j]
// summed from +0 in channel order, separate multiply and add; four
// column vectors at a time, then one.
TEXT ·aggMixVec(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ e+8(FP), SI
	MOVQ a+16(FP), BX
	MOVQ c+24(FP), CX
	MOVQ stride+32(FP), R8
	MOVQ d8+40(FP), AX
	SHLQ $2, R8

mix_four:
	CMPQ   AX, $32
	JLT    mix_one
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, DX
	MOVQ   BX, R10
	MOVQ   CX, R11

	PCALIGN $64
mix_four_c:
	VBROADCASTSS (R10), Y8
	MIXCOL(0, Y4, Y0)
	MIXCOL(32, Y5, Y1)
	MIXCOL(64, Y6, Y2)
	MIXCOL(96, Y7, Y3)
	ADDQ         R8, DX
	ADDQ         $4, R10
	DECQ         R11
	JNZ          mix_four_c
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	ADDQ         $128, SI
	ADDQ         $128, DI
	SUBQ         $32, AX
	JMP          mix_four

mix_one:
	TESTQ  AX, AX
	JZ     mix_done
	VXORPS Y0, Y0, Y0
	MOVQ   SI, DX
	MOVQ   BX, R10
	MOVQ   CX, R11

	PCALIGN $64
mix_one_c:
	VBROADCASTSS (R10), Y8
	MIXCOL(0, Y4, Y0)
	ADDQ         R8, DX
	ADDQ         $4, R10
	DECQ         R11
	JNZ          mix_one_c
	VMOVUPS      Y0, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	SUBQ         $8, AX
	JMP          mix_one

mix_done:
	VZEROUPPER
	RET

// The strip writer's constants: int32 lanes 0…7, then 0xF and 8.
DATA ev_dq+0(SB)/8, $0x0000000100000000
DATA ev_dq+8(SB)/8, $0x0000000300000002
DATA ev_dq+16(SB)/8, $0x0000000500000004
DATA ev_dq+24(SB)/8, $0x0000000700000006
DATA ev_dq+32(SB)/8, $0x000000080000000f
GLOBL ev_dq(SB), RODATA|NOPTR, $40

// PANELS widens panel p's eight codes into Yp with SXBD (int8) or
// NIBBLES (Q4_0: row 2j, 2j+1 in the low, high nibble of byte j; q-8).
#define PANELS(w) \
	w((SI), Y0)        \
	w((SI)(R8*1), Y1)  \
	w((SI)(R8*2), Y2)  \
	w((SI)(R9*1), Y3)  \
	w((R10), Y4)       \
	w((R10)(R8*1), Y5) \
	w((R10)(R8*2), Y6) \
	w((R10)(R9*1), Y7)
#define SXBD(m, y) VPMOVSXBD m, y
#define NIBBLES(m, y) \
	VPBROADCASTD m, y      \
	VPSRLVD      Y13, y, y \
	VPAND        Y14, y, y \
	VPSUBD       Y15, y, y

// ROWS converts rows r (low halves of a, b: panels 0…3, 4…7) and r+4
// (high halves), scales them by Y11 and stores them at lo, hi.
#define ROWS(a, b, lo, hi) \
	VPERM2F128 $0x20, b, a, Y10 \
	VPERM2F128 $0x31, b, a, b   \
	VCVTDQ2PS  Y10, Y10         \
	VCVTDQ2PS  b, b             \
	VMULPS     Y11, Y10, Y10    \
	VMULPS     Y11, b, b        \
	VMOVUPS    Y10, lo          \
	VMOVUPS    b, hi

// func dequantVec(dst *float32, data *byte, scales *float32, rows, stride, pb, nb int, q4 bool)
//
// float32(q)·d, DequantPanelsInto's bits, over rows [0, rows) (a
// multiple of 8) of eight panels into dst[i·stride + p], eight rows at a
// time: PANELS, COLS4x8, ROWS; the block scales gathered every 32 rows.
TEXT ·dequantVec(SB), NOSPLIT, $0-57
	MOVQ         dst+0(FP), DI
	MOVQ         data+8(FP), SI
	MOVQ         scales+16(FP), DX
	MOVQ         stride+32(FP), CX
	MOVQ         pb+40(FP), R8
	SHLQ         $2, CX           // dst row stride in bytes
	LEAQ         (CX)(CX*2), BX
	LEAQ         (R8)(R8*2), R9
	VMOVDQU      ev_dq(SB), Y12
	VPSLLD       $2, Y12, Y13     // nibble shifts 0, 4, …, 28
	VPBROADCASTD nb+48(FP), Y11
	VPMULLD      Y11, Y12, Y12    // panel p's scales at p·nb
	VPBROADCASTD ev_dq+32(SB), Y14
	VPBROADCASTD ev_dq+36(SB), Y15
	XORQ         AX, AX

	PCALIGN $64
dq_block:
	TESTQ      $31, AX
	JNZ        dq_widen
	VPCMPEQD   Y10, Y10, Y10
	VGATHERDPS Y10, (DX)(Y12*4), Y11
	ADDQ       $4, DX

dq_widen:
	LEAQ      (SI)(R8*4), R10
	CMPB      q4+56(FP), $0
	JNE       dq_q4
	PANELS(SXBD)
	ADDQ      $8, SI
	JMP       dq_rows

dq_q4:
	PANELS(NIBBLES)
	ADDQ $4, SI

dq_rows:
	COLS4x8(Y0, Y1, Y2, Y3, Y2, Y8, Y9, Y1)
	COLS4x8(Y4, Y5, Y6, Y7, Y6, Y0, Y3, Y5)
	LEAQ (DI)(CX*4), R10
	ROWS(Y2, Y6, (DI), (R10))
	ROWS(Y8, Y0, (DI)(CX*1), (R10)(CX*1))
	ROWS(Y9, Y3, (DI)(CX*2), (R10)(CX*2))
	ROWS(Y1, Y5, (DI)(BX*1), (R10)(BX*1))
	LEAQ (DI)(CX*8), DI
	ADDQ $8, AX
	CMPQ AX, rows+24(FP)
	JLT  dq_block
	VZEROUPPER
	RET
