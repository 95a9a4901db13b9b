//go:build race

package storage

// raceEnabled reports that the race detector is on: under it sync.Pool
// drops some of what it is given, so the pooled-buffer allocation gate
// does not run.
const raceEnabled = true
