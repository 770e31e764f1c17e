//go:build !race

package sim

// raceEnabled gates allocation assertions; see race_test.go.
const raceEnabled = false
