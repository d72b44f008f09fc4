package plan

// Cores-aware compute clock. The intra-rank parallel runtime
// (internal/tensor ParallelFor) threads every hot kernel across a
// rank's cores, so a rank's effective throughput is no longer the
// single-core clock that PR 1's benchmarks calibrated. The planner
// prices layouts against Spec.PeakFLOPS; these helpers scale that
// clock by a modeled multicore kernel speedup so layout pricing
// reflects threaded ranks.

// kernelSerialFraction is the Amdahl serial fraction assumed for the
// threaded kernels: packing, dispatch, and the softmax row reductions
// that stay on the calling goroutine. It is an UNVALIDATED model
// constant: the PR 8 kernel sweep (BENCH_PR8.json) ran on a one-core
// host, where extra workers time-share the core, so no measurement
// has been fitted to it (ROADMAP item 1a).
const kernelSerialFraction = 0.08

// KernelCoreSpeedup returns the modeled throughput multiplier of the
// threaded kernels on `cores` cores relative to one core:
// S(c) = 1 / (s + (1-s)/c), Amdahl's law with the assumed serial
// fraction above. cores <= 1 returns 1.
func KernelCoreSpeedup(cores int) float64 {
	if cores <= 1 {
		return 1
	}
	s := kernelSerialFraction
	return 1 / (s + (1-s)/float64(cores))
}

// ScaledShapeCores is ScaledShape with the per-device compute clock
// additionally multiplied by KernelCoreSpeedup(cores): the shape of a
// cluster whose ranks each run the threaded kernels on `cores` cores.
// Links are untouched — threading a rank speeds up its compute, not
// its NICs — so more cores shift the compute/communication balance
// toward communication exactly as they do on real hardware.
func ScaledShapeCores(nodes int, computeScale float64, cores int) ClusterShape {
	c := ScaledShape(nodes, computeScale)
	c.Spec.PeakFLOPS *= KernelCoreSpeedup(cores)
	return c
}
