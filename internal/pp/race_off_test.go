//go:build !race

package pp

// raceEnabled gates the AllocsPerRun assertions: race-detector
// instrumentation allocates on its own, so the zero-allocation tests
// only run in normal builds.
const raceEnabled = false
