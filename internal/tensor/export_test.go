package tensor

// The external tests of this directory run the row loops of nn, optim
// and comm with the assembly kernels on and off (rowkernels_test.go);
// those packages import this one, so only an external test package can
// hold them, and this is how it reaches the CPU gate.

// HostVector reports whether this CPU runs the assembly kernels.
var HostVector = useFMA

// SetVector turns the assembly kernels on (where the CPU has them) or
// off. Not safe beside running kernels.
func SetVector(on bool) { useFMA = on && HostVector }
