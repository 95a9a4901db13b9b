//go:build race

package core

// raceEnabled reports that the race detector is on: its instrumentation
// moves allocation counts, so the allocation gates do not run under it.
const raceEnabled = true
