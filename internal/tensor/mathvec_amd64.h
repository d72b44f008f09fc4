// The exp32 lane arithmetic of mathfast.go as assembler macros for
// elemvec_amd64.s's GELU and softmax kernels, which keep the value in
// registers between the exponential and the loop around it. Every step
// mirrors the scalar function with separate multiply and add (no FMA
// contraction), so each lane computes its exact bits. The constants are
// elemvec_amd64.s's.

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
	VBROADCASTSS mvc_half(SB), Y3  \
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
