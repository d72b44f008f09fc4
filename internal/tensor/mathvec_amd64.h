// The exp32 / tanh32 lane arithmetic of mathfast.go as assembler
// macros, shared by mathvec_amd64.s (expVec) and elemvec_amd64.s (the
// GELU and softmax kernels, which keep the value in registers between
// the transcendental and the loop around it). Every step mirrors the
// scalar function with separate multiply and add (no FMA contraction),
// so each lane computes its exact bits. The constants are
// mathvec_amd64.s's.

// EXPCORE computes Y5 = exp-polynomial(Y1) without range clamps,
// clobbering Y2, Y3, Y4. Mirrors exp32's op sequence exactly:
//   nf = floor(a·log2e + 0.5); r = a − nf·C1 − nf·C2;
//   p = Horner(r); p = p·r·r + r + 1; Y5 = p · 2^nf.
#define EXPCORE \
	VBROADCASTSS mvc_log2e(SB), Y2 \
	VMULPS       Y2, Y1, Y2        \
	VBROADCASTSS mvc_half(SB), Y3  \
	VADDPS       Y3, Y2, Y2        \
	VROUNDPS     $1, Y2, Y2        \
	VBROADCASTSS mvc_expc1(SB), Y3 \
	VMULPS       Y3, Y2, Y3        \
	VSUBPS       Y3, Y1, Y4        \
	VBROADCASTSS mvc_expc2(SB), Y3 \
	VMULPS       Y3, Y2, Y3        \
	VSUBPS       Y3, Y4, Y4        \
	VBROADCASTSS mvc_ep0(SB), Y5   \
	VBROADCASTSS mvc_ep1(SB), Y3   \
	VMULPS       Y4, Y5, Y5        \
	VADDPS       Y3, Y5, Y5        \
	VBROADCASTSS mvc_ep2(SB), Y3   \
	VMULPS       Y4, Y5, Y5        \
	VADDPS       Y3, Y5, Y5        \
	VBROADCASTSS mvc_ep3(SB), Y3   \
	VMULPS       Y4, Y5, Y5        \
	VADDPS       Y3, Y5, Y5        \
	VBROADCASTSS mvc_ep4(SB), Y3   \
	VMULPS       Y4, Y5, Y5        \
	VADDPS       Y3, Y5, Y5        \
	VBROADCASTSS mvc_ep5(SB), Y3   \
	VMULPS       Y4, Y5, Y5        \
	VADDPS       Y3, Y5, Y5        \
	VMULPS       Y4, Y5, Y5        \
	VMULPS       Y4, Y5, Y5        \
	VADDPS       Y4, Y5, Y5        \
	VBROADCASTSS mvc_one(SB), Y3   \
	VADDPS       Y3, Y5, Y5        \
	VCVTTPS2DQ   Y2, Y2            \
	VPBROADCASTD mvc_i127(SB), Y3  \
	VPADDD       Y3, Y2, Y2        \
	VPSLLD       $23, Y2, Y2       \
	VMULPS       Y2, Y5, Y5

// EXPCLAMP applies exp32's range clamps to Y5 = EXPCORE of the argument
// still held in Y0: x > 88.376… → MaxFloat32; x < −87.336… → 0. A NaN
// argument fails both compares and keeps EXPCORE's NaN. Clobbers Y2,
// Y3, Y4.
#define EXPCLAMP \
	VBROADCASTSS mvc_maxarg(SB), Y2 \
	VCMPPS       $0x0e, Y2, Y0, Y3  \
	VBROADCASTSS mvc_maxf32(SB), Y4 \
	VBLENDVPS    Y3, Y4, Y5, Y5     \
	VBROADCASTSS mvc_minarg(SB), Y2 \
	VCMPPS       $0x01, Y2, Y0, Y3  \
	VXORPS       Y4, Y4, Y4         \
	VBLENDVPS    Y3, Y4, Y5, Y5

// TANHCORE computes Y5 = tanh32(Y0), preserving Y0 and clobbering
// Y1…Y4, Y6, Y7: the minimax polynomial Horner(z)·z·x + x, z = x², where
// |x| < 0.625; 1 − 2/(e^{2x}+1) beyond (lanes outside EXPCORE's range
// are overridden by the saturation blends, as the scalar branches do);
// x > 9 → 1, x < −9 → −1. A NaN fails every compare and comes out of
// the exp identity as NaN.
#define TANHCORE \
	VMULPS       Y0, Y0, Y1          \
	VBROADCASTSS mvc_th0(SB), Y7     \
	VBROADCASTSS mvc_th1(SB), Y3     \
	VMULPS       Y1, Y7, Y7          \
	VADDPS       Y3, Y7, Y7          \
	VBROADCASTSS mvc_th2(SB), Y3     \
	VMULPS       Y1, Y7, Y7          \
	VADDPS       Y3, Y7, Y7          \
	VBROADCASTSS mvc_th3(SB), Y3     \
	VMULPS       Y1, Y7, Y7          \
	VADDPS       Y3, Y7, Y7          \
	VBROADCASTSS mvc_th4(SB), Y3     \
	VMULPS       Y1, Y7, Y7          \
	VADDPS       Y3, Y7, Y7          \
	VMULPS       Y1, Y7, Y7          \
	VMULPS       Y0, Y7, Y7          \
	VADDPS       Y0, Y7, Y7          \
	VBROADCASTSS mvc_absmask(SB), Y2 \
	VANDPS       Y0, Y2, Y6          \
	VBROADCASTSS mvc_c0625(SB), Y2   \
	VCMPPS       $0x01, Y2, Y6, Y6   \
	VADDPS       Y0, Y0, Y1          \
	EXPCORE                          \
	VBROADCASTSS mvc_one(SB), Y2     \
	VADDPS       Y2, Y5, Y5          \
	VBROADCASTSS mvc_two(SB), Y3     \
	VDIVPS       Y5, Y3, Y5          \
	VSUBPS       Y5, Y2, Y5          \
	VBLENDVPS    Y6, Y7, Y5, Y5      \
	VBROADCASTSS mvc_nine(SB), Y2    \
	VCMPPS       $0x0e, Y2, Y0, Y3   \
	VBROADCASTSS mvc_one(SB), Y4     \
	VBLENDVPS    Y3, Y4, Y5, Y5      \
	VBROADCASTSS mvc_negnine(SB), Y2 \
	VCMPPS       $0x01, Y2, Y0, Y3   \
	VBROADCASTSS mvc_negone(SB), Y4  \
	VBLENDVPS    Y3, Y4, Y5, Y5
