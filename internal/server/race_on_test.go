//go:build race

package server

// raceEnabled reports that the race detector is on: under it sync.Pool
// drops some of what it is given, so the allocation gates do not run.
const raceEnabled = true
