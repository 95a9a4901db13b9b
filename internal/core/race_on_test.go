//go:build race

package core

// raceEnabled reports that the race detector is on: it drops sync.Pool
// entries at random, so a call on a pooled codec allocates unpredictably.
const raceEnabled = true
