//go:build amd64

#include "textflag.h"

// OUTER_STEP is one reduction step of outerTile4x16 once Y8:Y9 hold
// u[i, 0:16]: four broadcasts of the left operand's element (i, j),
// eight FMAs into the row accumulator pairs Y0:Y1 … Y6:Y7, and the
// step to i+1.
#define OUTER_STEP \
	VBROADCASTSS (SI), Y10; \
	VBROADCASTSS (SI)(R10*1), Y11; \
	VBROADCASTSS (SI)(R11*1), Y12; \
	VBROADCASTSS (SI)(R12*1), Y13; \
	VFMADD231PS  Y8, Y10, Y0; \
	VFMADD231PS  Y9, Y10, Y1; \
	VFMADD231PS  Y8, Y11, Y2; \
	VFMADD231PS  Y9, Y11, Y3; \
	VFMADD231PS  Y8, Y12, Y4; \
	VFMADD231PS  Y9, Y12, Y5; \
	VFMADD231PS  Y8, Y13, Y6; \
	VFMADD231PS  Y9, Y13, Y7; \
	ADDQ         R8, SI; \
	ADDQ         R9, DI

// OUTER_ALL applies one two-operand instruction to the eight
// accumulators, even registers from a, odd ones from b.
#define OUTER_ALL(op, a, b) \
	op a, Y0, Y0; \
	op b, Y1, Y1; \
	op a, Y2, Y2; \
	op b, Y3, Y3; \
	op a, Y4, Y4; \
	op b, Y5, Y5; \
	op a, Y6, Y6; \
	op b, Y7, Y7

// func outerTile4x16(dst, t, u *float32, k, tk, tr, un, dn, rows int, mask *int32, bias *float32, scale float32, acc bool)
//
// Computes the rows×16 block of L@u whose corner is dst, where element
// (i, j) of the left operand L is t[i*tk + j*tr] and row i of u starts
// at u[i*un]: for each of the k reduction steps, u[i, 0:16] is loaded
// once and multiplied into one accumulator pair per output row by a
// broadcast of L(i, j) —
//   acc[j] = fma(t[i*tk + j*tr], u[i*un : i*un+16], acc[j]),  i = 0 … k-1
// — so every output element is one k-ordered FMA chain from zero,
// whatever block it falls in. k must be at least 1. rows (1…4) is the
// number of valid output rows: a short block re-reads its last valid
// row of L, so nothing outside t is touched, and stores only `rows`
// rows, dn elements apart. mask (nil = all 16 columns) points at 16
// int32 lane masks for a short last panel: masked lanes of u, bias and
// dst are neither read nor written. The store applies, in this order,
// ·scale (skipped when it is 1), +bias[0:16] (nil = none) and +dst
// (acc), each separately rounded.
TEXT ·outerTile4x16(SB), NOSPLIT, $0-93
	MOVQ dst+0(FP), DX
	MOVQ t+8(FP), SI
	MOVQ u+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ tk+32(FP), R8
	MOVQ tr+40(FP), BX
	MOVQ un+48(FP), R9
	MOVQ rows+64(FP), AX
	MOVQ mask+72(FP), R13
	SHLQ $2, R8 // step of t per reduction index, in bytes
	SHLQ $2, BX // step of t per output row, in bytes
	SHLQ $2, R9 // u row stride in bytes

	// Byte offsets of output rows 1…3 within the left operand, clamped
	// to the last valid one.
	XORQ R10, R10
	XORQ R11, R11
	XORQ R12, R12
	CMPQ AX, $2
	JLT  offsets_done
	MOVQ BX, R10
	MOVQ BX, R11
	MOVQ BX, R12
	CMPQ AX, $3
	JLT  offsets_done
	ADDQ BX, R11
	MOVQ R11, R12
	CMPQ AX, $4
	JLT  offsets_done
	ADDQ BX, R12

offsets_done:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  R13, R13
	JNZ    masked

	// Full panel: plain loads of u, and an all-ones mask for the loads
	// of the store phase.
	VPCMPEQD Y14, Y14, Y14
	VMOVDQA  Y14, Y15

outer_loop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	OUTER_STEP
	DECQ    CX
	JNZ     outer_loop
	JMP     finish

masked:
	VMOVDQU (R13), Y14
	VMOVDQU 32(R13), Y15

masked_loop:
	VMASKMOVPS (DI), Y14, Y8
	VMASKMOVPS 32(DI), Y15, Y9
	OUTER_STEP
	DECQ       CX
	JNZ        masked_loop

	// The chains are complete; SI, DI, CX, BX and R8…R12 are free.
finish:
	MOVL scale+88(FP), CX
	CMPL CX, $0x3f800000 // 1.0
	JEQ  scaled
	VBROADCASTSS scale+88(FP), Y8
	OUTER_ALL(VMULPS, Y8, Y8)

scaled:
	MOVQ  bias+80(FP), SI
	TESTQ SI, SI
	JZ    biased
	VMASKMOVPS (SI), Y14, Y8
	VMASKMOVPS 32(SI), Y15, Y9
	OUTER_ALL(VADDPS, Y8, Y9)

biased:
	MOVQ    dn+56(FP), R9
	SHLQ    $2, R9 // dst row stride in bytes
	MOVBLZX acc+92(FP), BX

	// Store one row per pass from Y0:Y1, rotating the next row's
	// accumulators down.
store_row:
	TESTQ      BX, BX
	JZ         store
	VMASKMOVPS (DX), Y14, Y8
	VMASKMOVPS 32(DX), Y15, Y9
	VADDPS     Y8, Y0, Y0
	VADDPS     Y9, Y1, Y1

store:
	TESTQ      R13, R13
	JNZ        store_masked
	VMOVUPS    Y0, (DX)
	VMOVUPS    Y1, 32(DX)
	JMP        next_row

store_masked:
	VMASKMOVPS Y0, Y14, (DX)
	VMASKMOVPS Y1, Y15, 32(DX)

next_row:
	VMOVAPS Y2, Y0
	VMOVAPS Y3, Y1
	VMOVAPS Y4, Y2
	VMOVAPS Y5, Y3
	VMOVAPS Y6, Y4
	VMOVAPS Y7, Y5
	ADDQ    R9, DX
	DECQ    AX
	JNZ     store_row
	VZEROUPPER
	RET

// func cpuHasAVX2FMA() bool
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 12 = FMA, bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	BTL  $12, R8
	JNC  no
	BTL  $27, R8
	JNC  no
	BTL  $28, R8
	JNC  no
	// XGETBV: XCR0 bits 1 and 2 = XMM and YMM state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID leaf 7 subleaf 0: EBX bit 5 = AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JNC  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
