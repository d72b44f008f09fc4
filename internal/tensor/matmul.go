package tensor

import "fmt"

// Every matrix product runs on the one micro-kernel of outer.go, which
// wants its right operand row-major [k, n] and reads its left operand
// through two strides. What an entry point has to do first follows
// from where its operands' reduction axis k lies — never from a size
// or a flag:
//
//   - t @ u and tᵀ @ u (forward products, weight gradients, attention's
//     P·V, dS·K, dV and dK): nothing; both operands are read in place.
//   - t @ uᵀ (attention's Q·Kᵀ and dO·Vᵀ): u [n, k] is transposed once
//     into a pooled buffer. A caller whose u is stable across calls
//     keeps the transpose itself (TransposeInto) and calls t @ u.
//
// Every entry point writes into a caller-owned destination, so
// steady-state training steps allocate nothing.

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
	return matMulBias(dst, t, u, nil, "MatMulInto")
}

// MatMulBiasInto computes dst = t @ u + bias, broadcasting the
// length-n bias over rows — the fused linear-layer forward. A nil bias
// adds nothing.
func MatMulBiasInto(dst, t, u, bias *Tensor) *Tensor {
	return matMulBias(dst, t, u, bias, "MatMulBiasInto")
}

func matMulBias(dst, t, u, bias *Tensor, op string) *Tensor {
	check2D(t, u, op)
	m, k := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v @ %v", op, t.shape, u.shape))
	}
	checkDst(dst, m, n, op)
	dispatchOuter(mulTask(dst.data, t.data, u.data, biasData(bias, n, op), m, k, n), 1)
	return dst
}

// biasData returns the values of an optional length-n bias.
func biasData(bias *Tensor, n int, op string) []float32 {
	if bias == nil {
		return nil
	}
	if bias.Len() != n {
		panic(fmt.Sprintf("tensor: %s bias %v, want length %d", op, bias.shape, n))
	}
	return bias.data
}

// MatMulTransBInto computes dst = t @ uᵀ for [m,k] @ ([n,k])ᵀ -> [m,n],
// transposing u into a pooled buffer first.
func MatMulTransBInto(dst, t, u *Tensor) *Tensor {
	check2D(t, u, "MatMulTransBInto")
	m, k := t.shape[0], t.shape[1]
	n, k2 := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransBInto inner dimension mismatch %v @ %vᵀ", t.shape, u.shape))
	}
	checkDst(dst, m, n, "MatMulTransBInto")
	ut := getPack(k * n)
	packTranspose(*ut, u.data, n, k)
	dispatchOuter(mulTask(dst.data, t.data, *ut, nil, m, k, n), 1)
	putPack(ut)
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
	dispatchOuter(mulTask(dst.data, t.data, u.data, nil, m, k, n), b)
	return dst
}

// BatchedMatMulTransBScaledInto computes dst[i] = scale·(t[i] @ u[i]ᵀ)
// batchwise: [b,m,k] @ ([b,n,k])ᵀ -> [b,m,n], transposing every u[i]
// into a pooled buffer first. With scale = 1/√d this is the fused
// attention-score kernel for all heads at once.
func BatchedMatMulTransBScaledInto(dst, t, u *Tensor, scale float32) *Tensor {
	b, m, k, n, k2 := checkBatched(dst, t, u, "BatchedMatMulTransBScaledInto")
	if k != k2 || dst.shape[1] != m || dst.shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchedMatMulTransBScaledInto shapes %v @ %vᵀ -> %v", t.shape, u.shape, dst.shape))
	}
	ut := getPack(b * k * n)
	packBatched(*ut, u.data, b, n, k)
	o := mulTask(dst.data, t.data, *ut, nil, m, k, n)
	o.scale = scale
	dispatchOuter(o, b)
	putPack(ut)
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

// MatMulFLOPs returns the floating-point operation count of an
// [m,k]@[k,n] product (2mkn: one multiply and one add per term).
func MatMulFLOPs(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}
