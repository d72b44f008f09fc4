//go:build amd64

#include "textflag.h"
#include "mathvec_amd64.h"

// 8-lane AVX2 exp32, and the constants of the exp32 / tanh32 macros in
// mathvec_amd64.h, which hold the arithmetic.

// Constant pool (float32 bit patterns; see mathfast.go for values).
DATA mvc_log2e+0(SB)/4, $0x3fb8aa3b  // 1.44269504…
DATA mvc_half+0(SB)/4, $0x3f000000   // 0.5
DATA mvc_expc1+0(SB)/4, $0x3f318000  // ln2 high part
DATA mvc_expc2+0(SB)/4, $0xb95e8083  // ln2 low part
DATA mvc_ep0+0(SB)/4, $0x39506967
DATA mvc_ep1+0(SB)/4, $0x3ab743ce
DATA mvc_ep2+0(SB)/4, $0x3c088908
DATA mvc_ep3+0(SB)/4, $0x3d2aa9c1
DATA mvc_ep4+0(SB)/4, $0x3e2aaaaa
DATA mvc_ep5+0(SB)/4, $0x3f000000
DATA mvc_one+0(SB)/4, $0x3f800000
DATA mvc_two+0(SB)/4, $0x40000000
DATA mvc_maxarg+0(SB)/4, $0x42b0c0a5 // 88.3762626647949
DATA mvc_minarg+0(SB)/4, $0xc2aeac50 // -87.3365478515625
DATA mvc_maxf32+0(SB)/4, $0x7f7fffff // MaxFloat32
DATA mvc_i127+0(SB)/4, $0x0000007f   // exponent bias (integer)
DATA mvc_absmask+0(SB)/4, $0x7fffffff
DATA mvc_c0625+0(SB)/4, $0x3f200000  // 0.625
DATA mvc_nine+0(SB)/4, $0x41100000
DATA mvc_negnine+0(SB)/4, $0xc1100000
DATA mvc_negone+0(SB)/4, $0xbf800000
DATA mvc_th0+0(SB)/4, $0xbbbaf0ea
DATA mvc_th1+0(SB)/4, $0x3ca9134e
DATA mvc_th2+0(SB)/4, $0xbd5c1e2d
DATA mvc_th3+0(SB)/4, $0x3e088393
DATA mvc_th4+0(SB)/4, $0xbeaaaa99
GLOBL mvc_log2e(SB), RODATA|NOPTR, $4
GLOBL mvc_half(SB), RODATA|NOPTR, $4
GLOBL mvc_expc1(SB), RODATA|NOPTR, $4
GLOBL mvc_expc2(SB), RODATA|NOPTR, $4
GLOBL mvc_ep0(SB), RODATA|NOPTR, $4
GLOBL mvc_ep1(SB), RODATA|NOPTR, $4
GLOBL mvc_ep2(SB), RODATA|NOPTR, $4
GLOBL mvc_ep3(SB), RODATA|NOPTR, $4
GLOBL mvc_ep4(SB), RODATA|NOPTR, $4
GLOBL mvc_ep5(SB), RODATA|NOPTR, $4
GLOBL mvc_one(SB), RODATA|NOPTR, $4
GLOBL mvc_two(SB), RODATA|NOPTR, $4
GLOBL mvc_maxarg(SB), RODATA|NOPTR, $4
GLOBL mvc_minarg(SB), RODATA|NOPTR, $4
GLOBL mvc_maxf32(SB), RODATA|NOPTR, $4
GLOBL mvc_i127(SB), RODATA|NOPTR, $4
GLOBL mvc_absmask(SB), RODATA|NOPTR, $4
GLOBL mvc_c0625(SB), RODATA|NOPTR, $4
GLOBL mvc_nine(SB), RODATA|NOPTR, $4
GLOBL mvc_negnine(SB), RODATA|NOPTR, $4
GLOBL mvc_negone(SB), RODATA|NOPTR, $4
GLOBL mvc_th0(SB), RODATA|NOPTR, $4
GLOBL mvc_th1(SB), RODATA|NOPTR, $4
GLOBL mvc_th2(SB), RODATA|NOPTR, $4
GLOBL mvc_th3(SB), RODATA|NOPTR, $4
GLOBL mvc_th4(SB), RODATA|NOPTR, $4

// func expVec(dst, src *float32, n int)
TEXT ·expVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JZ   edone

eloop:
	VMOVUPS (SI), Y0 // x (kept for the clamp blends)
	VMOVUPS Y0, Y1
	EXPCORE
	EXPCLAMP
	VMOVUPS Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     eloop

edone:
	VZEROUPPER
	RET
