package tensor

// The external tests of this directory run the row loops of nn, optim
// and comm with the assembly kernels on and off (rowkernels_test.go)
// and sweep every OpKind's kernel over worker counts (opkind_test.go);
// those packages import this one, so only an external test package can
// hold them, and this is how it reaches the CPU gate and the threshold.

// HostVector reports whether this CPU runs the assembly kernels.
var HostVector = useFMA

// SetVector turns the assembly kernels on (where the CPU has them) or
// off. Not safe beside running kernels.
func SetVector(on bool) { useFMA = on && HostVector }

// ParallelThreshold is the least OpKind.Flops of a dispatch that forks.
const ParallelThreshold = parallelThreshold
