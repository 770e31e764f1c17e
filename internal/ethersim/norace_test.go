//go:build !race

package ethersim

// raceEnabled gates allocation assertions; see race_test.go.
const raceEnabled = false
