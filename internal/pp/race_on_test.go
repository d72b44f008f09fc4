//go:build race

package pp

// raceEnabled gates the AllocsPerRun assertions; see race_off_test.go.
const raceEnabled = true
