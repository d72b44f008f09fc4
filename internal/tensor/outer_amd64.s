//go:build amd64

#include "textflag.h"

// Register use of outerTile6x16: Y0…Y11 are the accumulator pairs of
// output rows 0…5, Y12:Y13 hold u[i, 0:16], Y14 the broadcast of the
// left operand's element, and Y15 a lane mask, reloaded before each
// masked access. SI walks t and DI walks u; row j of the left operand
// is read at SI plus the byte offset in 0, R10, R11, R12, BX or AX.

// OUTER_LOAD loads u[i, 0:16] into Y12:Y13.
#define OUTER_LOAD \
	VMOVUPS (DI), Y12; \
	VMOVUPS 32(DI), Y13

// OUTER_MLOAD(r) loads the enabled lanes of the 16 floats at r into
// Y12:Y13, zeroing the others.
#define OUTER_MLOAD(r) \
	VMOVDQU    (R13), Y15; \
	VMASKMOVPS (r), Y15, Y12; \
	VMOVDQU    32(R13), Y15; \
	VMASKMOVPS 32(r), Y15, Y13

// OUTER_ROW(off, a, b) multiplies u[i, 0:16] into the accumulator pair
// a:b by a broadcast of the left operand's element at off.
#define OUTER_ROW(off, a, b) \
	VBROADCASTSS off, Y14; \
	VFMADD231PS  Y12, Y14, a; \
	VFMADD231PS  Y13, Y14, b

// OUTER_FMA4 is the rest of one reduction step for a block of at most
// four rows: the pairs Y0:Y1 … Y6:Y7, and the step to i+1.
#define OUTER_FMA4 \
	OUTER_ROW((SI), Y0, Y1); \
	OUTER_ROW((SI)(R10*1), Y2, Y3); \
	OUTER_ROW((SI)(R11*1), Y4, Y5); \
	OUTER_ROW((SI)(R12*1), Y6, Y7); \
	ADDQ R8, SI; \
	ADDQ R9, DI

// OUTER_FMA6 is OUTER_FMA4 with rows 4 and 5 first.
#define OUTER_FMA6 \
	OUTER_ROW((SI)(BX*1), Y8, Y9); \
	OUTER_ROW((SI)(AX*1), Y10, Y11); \
	OUTER_FMA4

// OUTER_ALL applies one two-operand instruction to the twelve
// accumulators, even registers from a, odd ones from b.
#define OUTER_ALL(op, a, b) \
	op a, Y0, Y0; \
	op b, Y1, Y1; \
	op a, Y2, Y2; \
	op b, Y3, Y3; \
	op a, Y4, Y4; \
	op b, Y5, Y5; \
	op a, Y6, Y6; \
	op b, Y7, Y7; \
	op a, Y8, Y8; \
	op b, Y9, Y9; \
	op a, Y10, Y10; \
	op b, Y11, Y11

// The four row stores — full or masked panel, with or without acc —
// each write the accumulator pair a:b to the dst row at DX, adding what
// it held first when accumulating, then move to the next row and leave
// once AX rows are stored.
#define OUTER_NEXT \
	ADDQ R9, DX; \
	DECQ AX; \
	JZ   done

#define OUTER_STORE(a, b) \
	VMOVUPS a, (DX); \
	VMOVUPS b, 32(DX); \
	OUTER_NEXT

#define OUTER_STORE_ACC(a, b) \
	VADDPS  (DX), a, a; \
	VADDPS  32(DX), b, b; \
	VMOVUPS a, (DX); \
	VMOVUPS b, 32(DX); \
	OUTER_NEXT

#define OUTER_MSTORE(a, b) \
	VMOVDQU    (R13), Y15; \
	VMASKMOVPS a, Y15, (DX); \
	VMOVDQU    32(R13), Y15; \
	VMASKMOVPS b, Y15, 32(DX); \
	OUTER_NEXT

#define OUTER_MSTORE_ACC(a, b) \
	OUTER_MLOAD(DX); \
	VADDPS     Y12, a, a; \
	VADDPS     Y13, b, b; \
	OUTER_MSTORE(a, b)

// func outerTile6x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool)
//
// Computes the rows×16 block of L@u whose corner is dst, where element
// (i, j) of the left operand L is t[i*tk + j*tr] and row i of u starts
// at u[i*un]: for each of the k reduction steps, u[i, 0:16] is loaded
// once and multiplied into one accumulator pair per output row by a
// broadcast of L(i, j) —
//   acc[j] = fma(t[i*tk + j*tr], u[i*un : i*un+16], acc[j]),  i = 0 … k-1
// — so every output element is one k-ordered FMA chain from zero,
// whatever block it falls in. The k loop runs an odd first step alone
// and the rest two steps per pass; k must be at least 1. rows (1…6) is
// the number of valid output rows. A block of at most four runs a loop
// of four rows on Y0…Y7, one of five or six the loop of six. Either
// re-reads its last valid row of L for the rows past it, so nothing
// outside t is touched, and stores only `rows` rows, dn elements apart.
// mask (nil = all 16 columns) points at 16 int32 lane masks for a short
// last panel: masked lanes of u, bias and dst are neither read nor
// written. The store applies, in this order, ·scale (skipped when it is
// 1), +bias[0:16] (nil = none) and +dst (acc), each separately rounded.
TEXT ·outerTile6x16(SB), NOSPLIT, $0-93
	MOVQ t+8(FP), SI
	MOVQ u+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ tk+32(FP), R8
	MOVQ tr+40(FP), R10
	MOVQ un+48(FP), R9
	MOVQ rows+64(FP), AX
	MOVQ mask+72(FP), R13
	SHLQ $2, R8  // step of t per reduction index, in bytes
	SHLQ $2, R10 // step of t per output row, in bytes
	SHLQ $2, R9  // u row stride in bytes

	// Byte offsets of output rows 1…5 within the left operand. Rows 1…3
	// are clamped to the last valid row's, (rows-1)·tr, which is row 5's
	// whatever rows is; row 4 is read only when rows is 5 or 6.
	DECQ    AX
	IMULQ   R10, AX
	LEAQ    (R10)(R10*1), R11
	LEAQ    (R11)(R10*1), R12
	LEAQ    (R11)(R11*1), BX
	CMPQ    R10, AX
	CMOVQGT AX, R10
	CMPQ    R11, AX
	CMOVQGT AX, R11
	CMPQ    R12, AX
	CMOVQGT AX, R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	CMPQ   rows+64(FP), $4
	JGT    six
	TESTQ  R13, R13
	JNZ    masked4

	// Up to four rows: Y0…Y7 only.
	TESTQ $1, CX
	JZ    pairs4
	OUTER_LOAD
	OUTER_FMA4

pairs4:
	SHRQ $1, CX
	JZ   finish

	PCALIGN $64
loop4:
	OUTER_LOAD
	OUTER_FMA4
	OUTER_LOAD
	OUTER_FMA4
	DECQ CX
	JNZ  loop4
	JMP  finish

masked4:
	TESTQ $1, CX
	JZ    masked_pairs4
	OUTER_MLOAD(DI)
	OUTER_FMA4

masked_pairs4:
	SHRQ $1, CX
	JZ   finish

	PCALIGN $64
masked_loop4:
	OUTER_MLOAD(DI)
	OUTER_FMA4
	OUTER_MLOAD(DI)
	OUTER_FMA4
	DECQ CX
	JNZ  masked_loop4
	JMP  finish

six:
	TESTQ R13, R13
	JNZ   masked

	// Full panel: plain loads of u.
	TESTQ $1, CX
	JZ    pairs
	OUTER_LOAD
	OUTER_FMA6

pairs:
	SHRQ $1, CX
	JZ   finish

	PCALIGN $64
loop:
	OUTER_LOAD
	OUTER_FMA6
	OUTER_LOAD
	OUTER_FMA6
	DECQ CX
	JNZ  loop
	JMP  finish

masked:
	TESTQ $1, CX
	JZ    masked_pairs
	OUTER_MLOAD(DI)
	OUTER_FMA6

masked_pairs:
	SHRQ $1, CX
	JZ   finish

	PCALIGN $64
masked_loop:
	OUTER_MLOAD(DI)
	OUTER_FMA6
	OUTER_MLOAD(DI)
	OUTER_FMA6
	DECQ CX
	JNZ  masked_loop

	// The chains are complete; every general register but R13 is free,
	// and so are Y12…Y15.
finish:
	MOVL scale+88(FP), CX
	CMPL CX, $0x3f800000 // 1.0
	JEQ  scaled
	VBROADCASTSS scale+88(FP), Y12
	OUTER_ALL(VMULPS, Y12, Y12)

scaled:
	MOVQ  bias+80(FP), SI
	TESTQ SI, SI
	JZ    biased
	TESTQ R13, R13
	JNZ   bias_masked
	VMOVUPS (SI), Y12
	VMOVUPS 32(SI), Y13
	JMP     bias_add

bias_masked:
	OUTER_MLOAD(SI)

bias_add:
	OUTER_ALL(VADDPS, Y12, Y13)

biased:
	MOVQ    dst+0(FP), DX
	MOVQ    dn+56(FP), R9
	SHLQ    $2, R9 // dst row stride in bytes
	MOVQ    rows+64(FP), AX
	MOVBLZX acc+92(FP), BX
	TESTQ   R13, R13
	JNZ     store_masked
	TESTQ   BX, BX
	JNZ     store_acc
	OUTER_STORE(Y0, Y1)
	OUTER_STORE(Y2, Y3)
	OUTER_STORE(Y4, Y5)
	OUTER_STORE(Y6, Y7)
	OUTER_STORE(Y8, Y9)
	OUTER_STORE(Y10, Y11)

store_acc:
	OUTER_STORE_ACC(Y0, Y1)
	OUTER_STORE_ACC(Y2, Y3)
	OUTER_STORE_ACC(Y4, Y5)
	OUTER_STORE_ACC(Y6, Y7)
	OUTER_STORE_ACC(Y8, Y9)
	OUTER_STORE_ACC(Y10, Y11)

store_masked:
	TESTQ BX, BX
	JNZ   store_masked_acc
	OUTER_MSTORE(Y0, Y1)
	OUTER_MSTORE(Y2, Y3)
	OUTER_MSTORE(Y4, Y5)
	OUTER_MSTORE(Y6, Y7)
	OUTER_MSTORE(Y8, Y9)
	OUTER_MSTORE(Y10, Y11)

store_masked_acc:
	OUTER_MSTORE_ACC(Y0, Y1)
	OUTER_MSTORE_ACC(Y2, Y3)
	OUTER_MSTORE_ACC(Y4, Y5)
	OUTER_MSTORE_ACC(Y6, Y7)
	OUTER_MSTORE_ACC(Y8, Y9)
	OUTER_MSTORE_ACC(Y10, Y11)

done:
	VZEROUPPER
	RET

// Register use of outerTile8x32: Z0…Z15 are the accumulator pairs of
// output rows 0…7, Z16:Z17 hold u[i, 0:32], Z18…Z25 the broadcasts of
// the left operand's elements, and K1:K2 the lane mask of columns 0:16
// and 16:32 (all set for a full panel). SI walks t and DI walks u; row
// j of the left operand is read at SI plus the byte offset in 0, R10,
// R11, R12, R13, AX, BX or DX.

// WIDE_ROW(off, x, a, b) multiplies u[i, 0:32] into the accumulator
// pair a:b by a broadcast, in x, of the left operand's element at off.
#define WIDE_ROW(off, x, a, b) \
	VBROADCASTSS off, x; \
	VFMADD231PS  Z16, x, a; \
	VFMADD231PS  Z17, x, b

// WIDE_HALF(off, x, a) is WIDE_ROW for a panel of at most 16 columns:
// u[i, 0:16] into the accumulator a alone.
#define WIDE_HALF(off, x, a) \
	VBROADCASTSS off, x; \
	VFMADD231PS  Z16, x, a

// WIDE_ALL applies one two-operand instruction to the sixteen
// accumulators, even registers from a, odd ones from b.
#define WIDE_ALL(op, a, b) \
	op a, Z0, Z0; \
	op b, Z1, Z1; \
	op a, Z2, Z2; \
	op b, Z3, Z3; \
	op a, Z4, Z4; \
	op b, Z5, Z5; \
	op a, Z6, Z6; \
	op b, Z7, Z7; \
	op a, Z8, Z8; \
	op b, Z9, Z9; \
	op a, Z10, Z10; \
	op b, Z11, Z11; \
	op a, Z12, Z12; \
	op b, Z13, Z13; \
	op a, Z14, Z14; \
	op b, Z15, Z15

// The two row stores write the enabled lanes of the accumulator pair
// a:b to the dst row at DX, adding what it held first when
// accumulating, then move to the next row and leave once AX rows are
// stored.
#define WIDE_STORE(a, b) \
	VMOVUPS a, K1, (DX); \
	VMOVUPS b, K2, 64(DX); \
	ADDQ    R9, DX; \
	DECQ    AX; \
	JZ      wide_done

#define WIDE_STORE_ACC(a, b) \
	VMOVUPS.Z (DX), K1, Z16; \
	VMOVUPS.Z 64(DX), K2, Z17; \
	VADDPS    Z16, a, a; \
	VADDPS    Z17, b, b; \
	WIDE_STORE(a, b)

// func outerTile8x32(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool)
//
// outerTile6x16 on an 8×32 block in sixteen 16-lane accumulators, for
// CPUs with AVX-512F: the same arguments, the same k-ordered FMA chain
// from zero per output element and the same store, so every element
// has the bits the 6×16 tile gives it. The k loop runs one step per
// pass; k must be at least 1. rows (1…8) is the number of valid output
// rows; the rows past it re-read the last valid row of L. mask (nil =
// all 32 columns) points at 32 int32 lane masks, which become K1:K2:
// the loads of u, bias and dst and the stores to dst run under them,
// so masked lanes are neither read nor written. A panel of at most 16
// columns (K2 empty) runs a loop of half the width, on the even
// accumulators.
TEXT ·outerTile8x32(SB), NOSPLIT, $0-93
	MOVQ t+8(FP), SI
	MOVQ u+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ tk+32(FP), R8
	MOVQ tr+40(FP), R10
	MOVQ un+48(FP), R9
	MOVQ mask+72(FP), R13
	SHLQ $2, R8  // step of t per reduction index, in bytes
	SHLQ $2, R10 // step of t per output row, in bytes
	SHLQ $2, R9  // u row stride in bytes

	KXNORW    K1, K1, K1
	KXNORW    K2, K2, K2
	TESTQ     R13, R13
	JZ        wide_offsets
	VMOVDQU32 (R13), Z16
	VPTESTMD  Z16, Z16, K1
	VMOVDQU32 64(R13), Z17
	VPTESTMD  Z17, Z17, K2

	// Byte offsets of output rows 1…7 within the left operand. DX, row
	// 7's, is that of the last valid row, (rows-1)·tr, and rows 1…6 are
	// clamped to it.
wide_offsets:
	MOVQ    rows+64(FP), DX
	DECQ    DX
	IMULQ   R10, DX
	LEAQ    (R10)(R10*1), R11
	LEAQ    (R11)(R10*1), R12
	LEAQ    (R11)(R11*1), R13
	LEAQ    (R13)(R10*1), AX
	LEAQ    (R12)(R12*1), BX
	CMPQ    R10, DX
	CMOVQGT DX, R10
	CMPQ    R11, DX
	CMOVQGT DX, R11
	CMPQ    R12, DX
	CMOVQGT DX, R12
	CMPQ    R13, DX
	CMOVQGT DX, R13
	CMPQ    AX, DX
	CMOVQGT DX, AX
	CMPQ    BX, DX
	CMOVQGT DX, BX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

	KORTESTW K2, K2
	JZ       wide_half

	PCALIGN $64
wide_loop:
	VMOVUPS.Z (DI), K1, Z16
	VMOVUPS.Z 64(DI), K2, Z17
	WIDE_ROW((SI), Z18, Z0, Z1)
	WIDE_ROW((SI)(R10*1), Z19, Z2, Z3)
	WIDE_ROW((SI)(R11*1), Z20, Z4, Z5)
	WIDE_ROW((SI)(R12*1), Z21, Z6, Z7)
	WIDE_ROW((SI)(R13*1), Z22, Z8, Z9)
	WIDE_ROW((SI)(AX*1), Z23, Z10, Z11)
	WIDE_ROW((SI)(BX*1), Z24, Z12, Z13)
	WIDE_ROW((SI)(DX*1), Z25, Z14, Z15)
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  wide_loop

	// The chains are complete; every general register is free, and so
	// are Z16…Z31.
wide_chains:
	MOVL scale+88(FP), CX
	CMPL CX, $0x3f800000 // 1.0
	JEQ  wide_scaled
	VBROADCASTSS scale+88(FP), Z16
	WIDE_ALL(VMULPS, Z16, Z16)

wide_scaled:
	MOVQ      bias+80(FP), SI
	TESTQ     SI, SI
	JZ        wide_biased
	VMOVUPS.Z (SI), K1, Z16
	VMOVUPS.Z 64(SI), K2, Z17
	WIDE_ALL(VADDPS, Z16, Z17)

wide_biased:
	MOVQ    dst+0(FP), DX
	MOVQ    dn+56(FP), R9
	SHLQ    $2, R9 // dst row stride in bytes
	MOVQ    rows+64(FP), AX
	MOVBLZX acc+92(FP), BX
	TESTQ   BX, BX
	JNZ     wide_store_acc
	WIDE_STORE(Z0, Z1)
	WIDE_STORE(Z2, Z3)
	WIDE_STORE(Z4, Z5)
	WIDE_STORE(Z6, Z7)
	WIDE_STORE(Z8, Z9)
	WIDE_STORE(Z10, Z11)
	WIDE_STORE(Z12, Z13)
	WIDE_STORE(Z14, Z15)

wide_store_acc:
	WIDE_STORE_ACC(Z0, Z1)
	WIDE_STORE_ACC(Z2, Z3)
	WIDE_STORE_ACC(Z4, Z5)
	WIDE_STORE_ACC(Z6, Z7)
	WIDE_STORE_ACC(Z8, Z9)
	WIDE_STORE_ACC(Z10, Z11)
	WIDE_STORE_ACC(Z12, Z13)
	WIDE_STORE_ACC(Z14, Z15)

wide_done:
	VZEROUPPER
	RET

	PCALIGN $64
wide_half:
	VMOVUPS.Z (DI), K1, Z16
	WIDE_HALF((SI), Z18, Z0)
	WIDE_HALF((SI)(R10*1), Z19, Z2)
	WIDE_HALF((SI)(R11*1), Z20, Z4)
	WIDE_HALF((SI)(R12*1), Z21, Z6)
	WIDE_HALF((SI)(R13*1), Z22, Z8)
	WIDE_HALF((SI)(AX*1), Z23, Z10)
	WIDE_HALF((SI)(BX*1), Z24, Z12)
	WIDE_HALF((SI)(DX*1), Z25, Z14)
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  wide_half
	JMP  wide_chains
