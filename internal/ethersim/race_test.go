//go:build race

package ethersim

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates, so AllocsPerRun checks are meaningless
// under -race.
const raceEnabled = true
