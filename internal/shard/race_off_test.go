//go:build !race

package shard

// raceEnabled reports that the race detector is on (see race_on_test.go).
const raceEnabled = false
