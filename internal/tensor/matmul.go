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
	o := mulTask(dst.data, t.data, u.data, biasData(bias, n, op), k, n)
	o.rows(0, m)
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
	packTranspose(*ut, u.data, n, k, k)
	o := mulTask(dst.data, t.data, *ut, nil, k, n)
	o.rows(0, m)
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
	o.rows(0, m)
	return dst
}

// --- batched (per-head) products ---
//
// A batched product runs b independent products, one per entry. An
// operand holds its b entries in one of two layouts:
//
//   - a rank-3 head-major stack [b, r, c]: entry e is the e-th [r, c]
//     block;
//   - a rank-2 token-major matrix [s·r, H·c] with b = s·H, as the
//     attention projections write it: entry e = i·H + h is head h's
//     column block of sample i's r rows, read and written in place with
//     row stride H·c.
//
// Both are one addressing — entry e starts at (e/H)·ss + (e%H)·hs and
// has row stride ld; the stack is H = 1, ld = c — so every batched
// product runs one path, and no caller regroups heads to call it. The
// score operand (t of BatchedMatMulInto and BatchedMatMulTransAInto,
// dst of BatchedMatMulTransBScaledInto) is always a stack: it fixes b
// and its entry shape, from which a token-major operand's H follows.

// stack addresses the entries of one batched operand.
type stack struct {
	data      []float32
	heads, ld int // entries per sample, row stride
	hs, ss    int // steps from one head and from one sample to the next
}

// at returns entry e's data, from its first element on.
func (s stack) at(e int) []float32 { return s.data[e/s.heads*s.ss+e%s.heads*s.hs:] }

// scoreDims returns the entry count and entry shape of a batched
// product's score operand, which must be a stack.
func scoreDims(x *Tensor, op string) (b, r, c int) {
	if len(x.shape) != 3 {
		panic(fmt.Sprintf("tensor: %s score operand %v, want a [b, r, c] stack", op, x.shape))
	}
	return x.shape[0], x.shape[1], x.shape[2]
}

// entryCols returns the column count of x's entries when x holds b
// entries of r rows, or -1 when it cannot.
func entryCols(x *Tensor, b, r int) int {
	switch {
	case len(x.shape) == 3:
		return x.shape[2]
	case len(x.shape) == 2 && r > 0 && x.shape[0]%r == 0 && x.shape[0] > 0 && b%(x.shape[0]/r) == 0:
		return x.shape[1] / (b / (x.shape[0] / r))
	}
	return -1
}

// stackOf views x as b entries of [r, c] in whichever layout it has.
func stackOf(x *Tensor, b, r, c int, op string) stack {
	switch len(x.shape) {
	case 3:
		if x.shape[0] == b && x.shape[1] == r && x.shape[2] == c {
			return stack{x.data, 1, c, 0, r * c}
		}
	case 2:
		if s := x.shape[0] / max(r, 1); s > 0 && x.shape[0] == s*r && b%s == 0 && x.shape[1] == b/s*c {
			h := b / s
			return stack{x.data, h, h * c, c, r * h * c}
		}
	}
	panic(fmt.Sprintf("tensor: %s operand %v does not hold %d entries of [%d %d]", op, x.shape, b, r, c))
}

// batched runs p over b entries of m output rows, reading t and u and
// writing dst at each entry's place in its stack.
func (p product) batched(b, m int, dst, t, u stack) {
	for e := 0; e < b; e++ {
		p.dst, p.t, p.u = dst.at(e), t.at(e), u.at(e)
		p.rows(0, m)
	}
}

// BatchedMatMulInto computes dst[i] = t[i] @ u[i] batchwise:
// [b,m,k] @ [b,k,n] -> [b,m,n], t a stack.
func BatchedMatMulInto(dst, t, u *Tensor) *Tensor {
	const op = "BatchedMatMulInto"
	b, m, k := scoreDims(t, op)
	n := entryCols(u, b, k)
	ds, ts, us := stackOf(dst, b, m, n, op), stackOf(t, b, m, k, op), stackOf(u, b, k, n, op)
	p := product{k: k, n: n, tk: 1, tr: ts.ld, un: us.ld, dn: ds.ld, scale: 1}
	p.batched(b, m, ds, ts, us)
	return dst
}

// BatchedMatMulTransBScaledInto computes dst[i] = scale·(t[i] @ u[i]ᵀ)
// batchwise: [b,m,k] @ ([b,n,k])ᵀ -> [b,m,n], dst a stack, transposing
// every u[i] into a pooled buffer first. With scale = 1/√d this is the
// fused attention-score kernel for all heads at once.
func BatchedMatMulTransBScaledInto(dst, t, u *Tensor, scale float32) *Tensor {
	const op = "BatchedMatMulTransBScaledInto"
	b, m, n := scoreDims(dst, op)
	k := entryCols(t, b, m)
	ds, ts, us := stackOf(dst, b, m, n, op), stackOf(t, b, m, k, op), stackOf(u, b, n, k, op)
	ut := getPack(b * k * n)
	for e := 0; e < b; e++ {
		packTranspose((*ut)[e*k*n:(e+1)*k*n], us.at(e), n, k, us.ld)
	}
	p := product{k: k, n: n, tk: 1, tr: ts.ld, un: n, dn: ds.ld, scale: scale}
	p.batched(b, m, ds, ts, stack{*ut, 1, n, 0, k * n})
	putPack(ut)
	return dst
}

// BatchedMatMulTransAInto computes dst[i] = t[i]ᵀ @ u[i] batchwise:
// ([b,k,m])ᵀ @ [b,k,n] -> [b,m,n], t a stack.
func BatchedMatMulTransAInto(dst, t, u *Tensor) *Tensor {
	const op = "BatchedMatMulTransAInto"
	b, k, m := scoreDims(t, op)
	n := entryCols(u, b, k)
	ds, ts, us := stackOf(dst, b, m, n, op), stackOf(t, b, k, m, op), stackOf(u, b, k, n, op)
	p := product{k: k, n: n, tk: ts.ld, tr: 1, un: us.ld, dn: ds.ld, scale: 1}
	p.batched(b, m, ds, ts, us)
	return dst
}

// MatMulFLOPs returns the floating-point operation count of an
// [m,k]@[k,n] product (2mkn: one multiply and one add per term).
func MatMulFLOPs(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}
