//go:build !race

package live

// raceEnabled gates allocation assertions; see race_test.go.
const raceEnabled = false
