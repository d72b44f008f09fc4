package tensor

import "fmt"

// Matrix products run on one of two kernels, chosen per entry point by
// where the operands' reduction axis k lies — never by size or flag:
//
//   - k innermost on both sides (t @ uᵀ, a cached packed weight, the
//     quantized panels): the packed dot-product kernel (dotRange in
//     pool.go) streams both panels contiguously into a 2×4 register
//     block. t @ u has k outermost on the right only, so u is
//     transposed once into a pooled packing buffer first.
//   - k outermost on both sides (tᵀ @ u, every weight gradient): the
//     outer-product kernel (outer.go) reads both operands in place.
//
// The *Into variants write into caller-owned destinations so
// steady-state training steps allocate nothing; the allocating forms
// below them are thin compatibility wrappers.

func check2D(t, u *Tensor, op string) {
	if len(t.shape) != 2 || len(u.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, got %v, %v", op, t.shape, u.shape))
	}
}

func checkDst(dst *Tensor, m, n int, op string) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination %v, want [%d %d]", op, dst.shape, m, n))
	}
}

// MatMulInto computes dst = t @ u for [m,k] @ [k,n] -> [m,n].
func MatMulInto(dst, t, u *Tensor) *Tensor {
	check2D(t, u, "MatMulInto")
	m, k := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v @ %v", t.shape, u.shape))
	}
	checkDst(dst, m, n, "MatMulInto")
	mmPacked(dst.data, t.data, u.data, m, k, n, nil, dotOverwrite)
	return dst
}

// MatMulBiasInto computes dst = t @ u + bias, broadcasting the
// length-n bias over rows — the fused linear-layer forward. A nil bias
// adds nothing.
func MatMulBiasInto(dst, t, u, bias *Tensor) *Tensor {
	if bias == nil {
		return MatMulInto(dst, t, u)
	}
	check2D(t, u, "MatMulBiasInto")
	m, k := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 || bias.Len() != n {
		panic(fmt.Sprintf("tensor: MatMulBiasInto shapes %v @ %v + %v", t.shape, u.shape, bias.shape))
	}
	checkDst(dst, m, n, "MatMulBiasInto")
	mmPacked(dst.data, t.data, u.data, m, k, n, bias.data, dotBias)
	return dst
}

// mmPacked runs dst = a @ b (a: m×k, b: k×n) by packing bᵀ and
// dispatching the dot kernel.
func mmPacked(dst, a, b []float32, m, k, n int, bias []float32, mode dotMode) {
	pb := getPack(k * n)
	bt := *pb
	packTranspose(bt, b, k, n)
	dispatchDot(dotTask{dst: dst, a: a, bt: bt, bias: bias, k: k, n: n, scale: 1, mode: mode}, m)
	putPack(pb)
}

// PackTransposedInto writes uᵀ ([k,n] → n contiguous panels of length
// k) into dst — the operand layout the dot kernel streams. Callers
// with stable operands (layer weights between optimizer steps) cache
// the result and feed it to MatMulPackedBInto, skipping the per-call
// repack; pair with Tensor.Version to know when to refresh.
func PackTransposedInto(dst []float32, u *Tensor) []float32 {
	if len(u.shape) != 2 {
		panic(fmt.Sprintf("tensor: PackTransposedInto requires a 2-D tensor, got %v", u.shape))
	}
	if len(dst) != u.Len() {
		panic(fmt.Sprintf("tensor: PackTransposedInto destination %d, want %d", len(dst), u.Len()))
	}
	packTranspose(dst, u.data, u.shape[0], u.shape[1])
	return dst
}

// MatMulPackedBInto computes dst = t @ B (+ bias when non-nil) where
// bt is B's packed transpose from PackTransposedInto and n is B's
// column count: [m,k] @ [k,n] -> [m,n] with no per-call packing.
func MatMulPackedBInto(dst, t *Tensor, bt []float32, n int, bias *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulPackedBInto requires a 2-D input, got %v", t.shape))
	}
	m, k := t.shape[0], t.shape[1]
	if len(bt) != k*n {
		panic(fmt.Sprintf("tensor: MatMulPackedBInto packed operand %d, want %d×%d", len(bt), k, n))
	}
	checkDst(dst, m, n, "MatMulPackedBInto")
	mode := dotOverwrite
	var bd []float32
	if bias != nil {
		if bias.Len() != n {
			panic(fmt.Sprintf("tensor: MatMulPackedBInto bias %v, want length %d", bias.shape, n))
		}
		mode = dotBias
		bd = bias.data
	}
	dispatchDot(dotTask{dst: dst.data, a: t.data, bt: bt, bias: bd, k: k, n: n, scale: 1, mode: mode}, m)
	return dst
}

// MatMulTransBInto computes dst = t @ uᵀ for [m,k] @ ([n,k])ᵀ -> [m,n]
// without materializing the transpose: u's layout is already the
// packed panel the dot kernel wants. This is the hot path of attention
// (Q @ Kᵀ) and of input-gradient computation.
func MatMulTransBInto(dst, t, u *Tensor) *Tensor {
	check2D(t, u, "MatMulTransBInto")
	m, k := t.shape[0], t.shape[1]
	n, k2 := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransBInto inner dimension mismatch %v @ %vᵀ", t.shape, u.shape))
	}
	checkDst(dst, m, n, "MatMulTransBInto")
	dispatchDot(dotTask{dst: dst.data, a: t.data, bt: u.data, k: k, n: n, scale: 1, mode: dotOverwrite}, m)
	return dst
}

// MatMulTransAInto computes dst = tᵀ @ u for ([k,m])ᵀ @ [k,n] -> [m,n].
func MatMulTransAInto(dst, t, u *Tensor) *Tensor {
	return matMulTransA(dst, t, u, false)
}

// MatMulTransAAccInto accumulates dst += tᵀ @ u — the weight-gradient
// update dW += xᵀ @ dy, fused so no gradient temporary is allocated.
func MatMulTransAAccInto(dst, t, u *Tensor) *Tensor {
	return matMulTransA(dst, t, u, true)
}

func matMulTransA(dst, t, u *Tensor, acc bool) *Tensor {
	check2D(t, u, "MatMulTransAInto")
	k, m := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransAInto inner dimension mismatch %vᵀ @ %v", t.shape, u.shape))
	}
	checkDst(dst, m, n, "MatMulTransAInto")
	o := mulTransATask(dst.data, t.data, u.data, m, k, n)
	o.acc = acc
	dispatchOuter(o, 1)
	return dst
}

// --- batched (head-major) products over rank-3 tensors ---

func checkBatched(dst, t, u *Tensor, op string) (b, m, k, k2, n int) {
	if len(t.shape) != 3 || len(u.shape) != 3 || len(dst.shape) != 3 ||
		t.shape[0] != u.shape[0] || dst.shape[0] != t.shape[0] {
		panic(fmt.Sprintf("tensor: %s shapes %v, %v -> %v", op, t.shape, u.shape, dst.shape))
	}
	return t.shape[0], t.shape[1], t.shape[2], u.shape[1], u.shape[2]
}

// BatchedMatMulInto computes dst[i] = t[i] @ u[i] batchwise:
// [b,m,k] @ [b,k,n] -> [b,m,n].
func BatchedMatMulInto(dst, t, u *Tensor) *Tensor {
	b, m, k, k2, n := checkBatched(dst, t, u, "BatchedMatMulInto")
	if k != k2 || dst.shape[1] != m || dst.shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchedMatMulInto shapes %v @ %v -> %v", t.shape, u.shape, dst.shape))
	}
	pb := getPack(b * k * n)
	bt := *pb
	packBatched(bt, u.data, b, k, n)
	dispatchDotBatched(batchedDotTask{
		t: dotTask{k: k, n: n, scale: 1, mode: dotOverwrite}, m: m,
		dst: dst.data, a: t.data, bt: bt,
		dstStride: m * n, aStride: m * k, btStride: k * n,
	}, b)
	putPack(pb)
	return dst
}

// BatchedMatMulTransBScaledInto computes dst[i] = scale·(t[i] @ u[i]ᵀ)
// batchwise: [b,m,k] @ ([b,n,k])ᵀ -> [b,m,n]. With scale = 1/√d this
// is the fused attention-score kernel for all heads at once.
func BatchedMatMulTransBScaledInto(dst, t, u *Tensor, scale float32) *Tensor {
	b, m, k, n, k2 := checkBatched(dst, t, u, "BatchedMatMulTransBScaledInto")
	if k != k2 || dst.shape[1] != m || dst.shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchedMatMulTransBScaledInto shapes %v @ %vᵀ -> %v", t.shape, u.shape, dst.shape))
	}
	dispatchDotBatched(batchedDotTask{
		t: dotTask{k: k, n: n, scale: scale, mode: dotOverwrite}, m: m,
		dst: dst.data, a: t.data, bt: u.data,
		dstStride: m * n, aStride: m * k, btStride: n * k,
	}, b)
	return dst
}

// BatchedMatMulTransAInto computes dst[i] = t[i]ᵀ @ u[i] batchwise:
// ([b,k,m])ᵀ @ [b,k,n] -> [b,m,n].
func BatchedMatMulTransAInto(dst, t, u *Tensor) *Tensor {
	b, k, m, k2, n := checkBatched(dst, t, u, "BatchedMatMulTransAInto")
	if k != k2 || dst.shape[1] != m || dst.shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchedMatMulTransAInto shapes %vᵀ @ %v -> %v", t.shape, u.shape, dst.shape))
	}
	dispatchOuter(mulTransATask(dst.data, t.data, u.data, m, k, n), b)
	return dst
}

// --- allocating compatibility wrappers ---

// MatMul returns t @ u for 2-D tensors [m,k] @ [k,n] -> [m,n].
func MatMul(t, u *Tensor) *Tensor {
	check2D(t, u, "MatMul")
	return MatMulInto(New(t.shape[0], u.shape[1]), t, u)
}

// MatMulTransB returns t @ uᵀ for [m,k] @ ([n,k])ᵀ -> [m,n].
func MatMulTransB(t, u *Tensor) *Tensor {
	check2D(t, u, "MatMulTransB")
	return MatMulTransBInto(New(t.shape[0], u.shape[0]), t, u)
}

// MatMulTransA returns tᵀ @ u for ([k,m])ᵀ @ [k,n] -> [m,n].
func MatMulTransA(t, u *Tensor) *Tensor {
	check2D(t, u, "MatMulTransA")
	return MatMulTransAInto(New(t.shape[1], u.shape[1]), t, u)
}

// BatchedMatMul multiplies two 3-D tensors batchwise:
// [b,m,k] @ [b,k,n] -> [b,m,n].
func BatchedMatMul(t, u *Tensor) *Tensor {
	if len(t.shape) != 3 || len(u.shape) != 3 {
		panic(fmt.Sprintf("tensor: BatchedMatMul shapes %v @ %v", t.shape, u.shape))
	}
	return BatchedMatMulInto(New(t.shape[0], t.shape[1], u.shape[2]), t, u)
}

// MatMulFLOPs returns the floating-point operation count of an
// [m,k]@[k,n] product (2mkn: one multiply and one add per term).
func MatMulFLOPs(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}
