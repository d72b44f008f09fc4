package main

import (
	"sync"
	"time"

	"orbit/internal/cluster"
	"orbit/internal/comm"
	"orbit/internal/nn"
	"orbit/internal/optim"
	"orbit/internal/tensor"
)

// Replays: the traced run calls each layer's public kernels directly,
// at the shapes the workload drives them with, so a per-layer number
// exists beside the end-to-end one without instrumenting the program.

// replayBatch is how long one timed batch of a replayed kernel lasts
// and replayRounds how many batches a replay times. (Variables so that
// the scaled-down test run can shrink them.)
var (
	replayBatch  = 10 * time.Millisecond
	replayRounds = 9
)

// timeOp returns the per-call time of fn in microseconds at reference
// host speed: the median over replayRounds batches, each sized to last
// about replayBatch.
func timeOp(tr *tracer, name string, fn func()) float64 {
	start := time.Now()
	fn() // warm: workspaces, packed weights
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= replayBatch || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, replayRounds)
	before := hostRef()
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d, after := float64(time.Since(t0))/float64(time.Microsecond), hostRef()
		per[b] = atRefSpeed(d/float64(n), before, after)
		before = after
	}
	tr.add("replay."+name, start, time.Now(), 0, 0, 0)
	return median(per)
}

// matmulGflops times dst = a·w at [rows,k]×[k,n] through mm and
// returns computed GFLOP/s (2·rows·k·n operations per call).
func matmulGflops(tr *tracer, name string, rows, k, n int, mm func(dst, a *tensor.Tensor)) float64 {
	rng := tensor.NewRNG(7)
	a, dst := tensor.Randn(rng, 1, rows, k), tensor.New(rows, n)
	us := timeOp(tr, name, func() { mm(dst, a) })
	return float64(tensor.MatMulFLOPs(rows, k, n)) / us / 1e3
}

// noopJob is an empty parallel kernel: what remains is the runtime's
// fork/join cost.
type noopJob struct{}

func (noopJob) Tile(int, int, int) {}

func forkjoinUs(tr *tracer) float64 {
	return timeOp(tr, "tensor.forkjoin", func() { tensor.ParallelFor(32, 1<<20, noopJob{}) })
}

// kernelTimes are the training-path kernel replays.
type kernelTimes struct {
	matmulGflops, forkjoinUs             float64
	attnFwdUs, blockFwdUs, blockFwdBwdUs float64
	layernormFwdBwdUs, adamwNsPerParam   float64
	blockParams                          int
}

func (k kernelTimes) into(L map[string]float64) {
	L["tensor.matmul_f32_gflops"] = k.matmulGflops
	L["tensor.forkjoin_us"] = k.forkjoinUs
	L["nn.attention_fwd_us"] = k.attnFwdUs
	L["nn.block_fwd_us"] = k.blockFwdUs
	L["nn.block_fwdbwd_us"] = k.blockFwdBwdUs
	L["nn.layernorm_fwdbwd_us"] = k.layernormFwdBwdUs
	L["optim.adamw_ns_per_param"] = k.adamwNsPerParam
}

// replayTrainKernels times the kernels a training step is made of at
// the stack's shapes: one [tokens, dim] sample per call, as the engines
// run them.
func replayTrainKernels(tr *tracer, tokens int) kernelTimes {
	rng := tensor.NewRNG(11)
	x := tensor.Randn(rng, 1, tokens, trainDim)
	dy := tensor.Randn(rng, 1, tokens, trainDim)
	var k kernelTimes

	w := tensor.Randn(rng, 1, trainDim, 4*trainDim) // the MLP up-projection, the step's largest matmul
	k.matmulGflops = matmulGflops(tr, "tensor.matmul_f32", tokens, trainDim, 4*trainDim,
		func(dst, a *tensor.Tensor) { tensor.MatMulInto(dst, a, w) })
	k.forkjoinUs = forkjoinUs(tr)

	attn := nn.NewMultiHeadAttention("replay.attn", trainDim, trainHeads, true, rng)
	k.attnFwdUs = timeOp(tr, "nn.attention_fwd", func() { attn.Forward(x) })

	blocks := make([]*nn.TransformerBlock, trainLayers)
	var params []*nn.Param
	for i := range blocks {
		blocks[i] = nn.NewTransformerBlock("replay.block", trainDim, trainHeads, true, rng)
		params = append(params, blocks[i].Params()...)
	}
	k.blockParams = int(nn.CountParams(blocks[0].Params()))
	k.blockFwdUs = timeOp(tr, "nn.block_fwd", func() { blocks[0].Forward(x) })
	k.blockFwdBwdUs = timeOp(tr, "nn.block_fwdbwd", func() {
		blocks[0].Forward(x)
		blocks[0].Backward(dy)
	})

	ln := nn.NewLayerNorm("replay.ln", trainDim)
	k.layernormFwdBwdUs = timeOp(tr, "nn.layernorm_fwdbwd", func() {
		ln.Forward(x)
		ln.Backward(dy)
	})

	opt := optim.NewAdamW(params, 0.01)
	us := timeOp(tr, "optim.adamw", func() { opt.Step(1e-3) })
	k.adamwNsPerParam = us * 1e3 / float64(nn.CountParams(params))
	return k
}

// replayCollectives prices the host cost of the hybrid step's
// collectives: two persistent rank goroutines (every group of the
// TP2×PP2×FSDP2 layout has two members) run each collective in
// lockstep at the step's message sizes. The simulated link cost is
// not in these numbers; it is in the comm.sim_* and core.sim_* ones.
func replayCollectives(tr *tracer, L map[string]float64) {
	iters, rounds := int(200*replayBatch/time.Millisecond)+1, 5
	block := nn.NewTransformerBlock("replay.comm", trainDim, trainHeads, true, tensor.NewRNG(13))
	l := trainLayout(true)
	shard := int(nn.CountParams(block.Params())) / (l.TP * l.FSDP) // one rank's flat chunk of a block
	act := trainTokens * trainDim                                  // one micro-batch activation

	m := cluster.NewMachine(cluster.Frontier(), 1, 8)
	g := comm.NewGroup(m.Devices[:2])
	type bufs struct{ shard, full, fullOut, act, actOut []float32 }
	mk := func() bufs {
		return bufs{make([]float32, shard), make([]float32, 2*shard), make([]float32, 2*shard),
			make([]float32, act), make([]float32, act)}
	}
	ops := []struct {
		name string
		call func(rank int, b bufs)
	}{
		{"comm.allgather_host_us", func(r int, b bufs) { g.AllGatherInto(r, b.shard, b.full) }},
		{"comm.reducescatter_host_us", func(r int, b bufs) { g.ReduceScatterSumInto(r, b.full, b.shard) }},
		{"comm.allreduce_host_us", func(r int, b bufs) { g.AllReduceSumInto(r, b.act, b.actOut) }},
		{"comm.p2p_host_us", func(r int, b bufs) {
			if r == 0 {
				g.SendTo(r, b.act)
			} else {
				g.RecvFrom(r, b.actOut)
			}
		}},
	}

	// Persistent ranks: each receives the op index to run next.
	next := [2]chan int{make(chan int), make(chan int)}
	var done sync.WaitGroup
	for r := range next {
		go func() {
			b := mk()
			for op := range next[r] {
				for i := 0; i < iters; i++ {
					ops[op].call(r, b)
				}
				done.Done()
			}
		}()
	}
	start, before := time.Now(), mallocs()
	for op := range ops {
		per := make([]float64, rounds)
		for round := range per {
			d, _ := timedAtRefSpeed(func() error {
				done.Add(2)
				next[0] <- op
				next[1] <- op
				done.Wait()
				return nil
			})
			per[round] = d * 1e3 / float64(iters)
		}
		L[ops[op].name] = median(per)
	}
	L["comm.allocs_per_call"] = float64(mallocs()-before) / float64(2*iters*rounds*len(ops))
	close(next[0])
	close(next[1])
	tr.add("replay.comm", start, time.Now(), 0, 0, 0)
}
