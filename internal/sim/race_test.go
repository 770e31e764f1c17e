//go:build race

package sim

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates, so AllocsPerRun checks are meaningless
// under -race.
const raceEnabled = true
