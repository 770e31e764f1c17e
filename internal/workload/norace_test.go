//go:build !race

package workload

// raceEnabled gates allocation assertions; see race_test.go.
const raceEnabled = false
