//go:build amd64

#include "textflag.h"
#include "mathvec_amd64.h"

// Eight-lane AVX2 forms of the step's float32 loops: GELU forward and
// backward, softmax forward and backward (elem.go), the streaming adds,
// scale, bias-gradient sum and |max| scan (ops.go, tensor.go) and the
// transpose (pack.go). Each runs the Go loop's IEEE operations one for
// one — separate multiply and add, no FMA contraction — so every lane
// holds the loop's exact bits (rowkernels_test.go). Softmax's float64
// row sums are sequential along a row, so those two kernels take four
// rows at a time with one row per float64 lane. No kernel touches
// memory outside the element ranges it is given.

DATA ev_geluc0+0(SB)/4, $0x3f4c422a // float32(√(2/π))
DATA ev_geluc1+0(SB)/4, $0x3d372713 // float32(0.044715)
DATA ev_geluc3+0(SB)/4, $0x3e095d4f // float32(3·0.044715)
GLOBL ev_geluc0(SB), RODATA|NOPTR, $4
GLOBL ev_geluc1(SB), RODATA|NOPTR, $4
GLOBL ev_geluc3(SB), RODATA|NOPTR, $4
DATA ev_one64+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL ev_one64(SB), RODATA|NOPTR, $8

// func geluVec(dst, th, x *float32, n int)
//
// n (a multiple of 8) elements of elemGELUCached:
//   t = tanh32(c0·(x + c1·x·x·x));  th = t;  dst = 0.5·x·(1 + t)
// dst may be x, and th may be dst (the th store lands first).
TEXT ·geluVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ th+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	VBROADCASTSS ev_geluc1(SB), Y9
	VBROADCASTSS ev_geluc0(SB), Y10
	VBROADCASTSS mvc_half(SB), Y11
	VBROADCASTSS mvc_one(SB), Y12

gelu_loop:
	VMOVUPS (SI)(AX*4), Y8
	VMULPS  Y8, Y9, Y0
	VMULPS  Y8, Y0, Y0
	VMULPS  Y8, Y0, Y0          // c1·x·x·x
	VADDPS  Y0, Y8, Y0
	VMULPS  Y0, Y10, Y0         // the tanh argument
	TANHCORE
	VMOVUPS Y5, (DX)(AX*4)
	VMULPS  Y8, Y11, Y1         // 0.5·x
	VADDPS  Y5, Y12, Y2         // 1 + t
	VMULPS  Y2, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     gelu_loop
	VZEROUPPER
	RET

// func geluBwdVec(dst, x, th, dy *float32, n int)
//
// n (a multiple of 8) elements of elemGELUBwdCached, t the cached tanh:
//   dst = dy·(0.5·(1+t) + 0.5·x·(1-t·t)·(c0·(1 + c3·x·x)))
// dst may be dy.
TEXT ·geluBwdVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ th+16(FP), DX
	MOVQ dy+24(FP), BX
	MOVQ n+32(FP), CX
	XORQ AX, AX
	VBROADCASTSS mvc_one(SB), Y8
	VBROADCASTSS mvc_half(SB), Y9
	VBROADCASTSS ev_geluc0(SB), Y10
	VBROADCASTSS ev_geluc3(SB), Y11

gelub_loop:
	VMOVUPS (SI)(AX*4), Y0      // x
	VMOVUPS (DX)(AX*4), Y1      // t
	VMULPS  Y1, Y1, Y2
	VSUBPS  Y2, Y8, Y2          // sech² = 1 - t·t
	VMULPS  Y0, Y11, Y3
	VMULPS  Y0, Y3, Y3          // c3·x·x
	VADDPS  Y3, Y8, Y3
	VMULPS  Y3, Y10, Y3         // du
	VADDPS  Y1, Y8, Y4
	VMULPS  Y4, Y9, Y4          // 0.5·(1+t)
	VMULPS  Y0, Y9, Y5
	VMULPS  Y2, Y5, Y5
	VMULPS  Y3, Y5, Y5          // 0.5·x·sech²·du
	VADDPS  Y5, Y4, Y4
	VMOVUPS (BX)(AX*4), Y6
	VMULPS  Y4, Y6, Y6
	VMOVUPS Y6, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     gelub_loop
	VZEROUPPER
	RET

// COLS4x8 transposes columns c…c+7 of four rows held in r0…r3 (lane =
// column) into o0…o3 = columns c|c+4, c+1|c+5, c+2|c+6, c+3|c+7, one
// column per 128-bit half with lane = row. Destroys r0.
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

// func transposeVec(dst, src *float32, rows, cols, r8, c8 int)
//
// dst[c·rows + r] = src[r·cols + c] over r < r8, c < c8 (multiples of
// 8), one 8×8 block at a time: each YMM loads columns c…c+3 (then
// c+4…c+7) of rows r+i and r+4+i into its two halves, so two rounds of
// in-lane unpacks leave one whole column of the block per register.
TEXT ·transposeVec(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), AX
	MOVQ src+8(FP), R8
	MOVQ rows+16(FP), R10
	MOVQ cols+24(FP), R12
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

tr_block:
	LEAQ (SI)(R12*4), DX    // row r+4
	LEAQ (DI)(R10*4), R9    // dst row c+4
	VMOVUPS     (SI), X0
	VMOVUPS     (SI)(R12*1), X1
	VMOVUPS     (SI)(R12*2), X2
	VMOVUPS     (SI)(R13*1), X3
	VMOVUPS     16(SI), X4
	VMOVUPS     16(SI)(R12*1), X5
	VMOVUPS     16(SI)(R12*2), X6
	VMOVUPS     16(SI)(R13*1), X7
	VINSERTF128 $1, (DX), Y0, Y0
	VINSERTF128 $1, (DX)(R12*1), Y1, Y1
	VINSERTF128 $1, (DX)(R12*2), Y2, Y2
	VINSERTF128 $1, (DX)(R13*1), Y3, Y3
	VINSERTF128 $1, 16(DX), Y4, Y4
	VINSERTF128 $1, 16(DX)(R12*1), Y5, Y5
	VINSERTF128 $1, 16(DX)(R12*2), Y6, Y6
	VINSERTF128 $1, 16(DX)(R13*1), Y7, Y7
	VUNPCKLPS   Y1, Y0, Y8
	VUNPCKHPS   Y1, Y0, Y9
	VUNPCKLPS   Y3, Y2, Y10
	VUNPCKHPS   Y3, Y2, Y11
	VUNPCKLPD   Y10, Y8, Y0
	VUNPCKHPD   Y10, Y8, Y1
	VUNPCKLPD   Y11, Y9, Y2
	VUNPCKHPD   Y11, Y9, Y3
	VMOVUPS     Y0, (DI)
	VMOVUPS     Y1, (DI)(R10*1)
	VMOVUPS     Y2, (DI)(R10*2)
	VMOVUPS     Y3, (DI)(R11*1)
	VUNPCKLPS   Y5, Y4, Y8
	VUNPCKHPS   Y5, Y4, Y9
	VUNPCKLPS   Y7, Y6, Y10
	VUNPCKHPS   Y7, Y6, Y11
	VUNPCKLPD   Y10, Y8, Y4
	VUNPCKHPD   Y10, Y8, Y5
	VUNPCKLPD   Y11, Y9, Y6
	VUNPCKHPD   Y11, Y9, Y7
	VMOVUPS     Y4, (R9)
	VMOVUPS     Y5, (R9)(R10*1)
	VMOVUPS     Y6, (R9)(R10*2)
	VMOVUPS     Y7, (R9)(R11*1)
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
