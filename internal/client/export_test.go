package client

import (
	"testing"

	"repro/internal/authindex"
	"repro/internal/storage"
)

// This file lends the external tests (package client_test, which may
// import internal/shard) what they need of the package's internals.

// CountingPipe serves store over an in-memory pipe and returns the client
// side with a count of the frames it has sent, per command byte.
func CountingPipe(t *testing.T, store *storage.Store) (*Conn, func(cmd byte) int) {
	conn, fc := startCountingPipe(t, store)
	return conn, fc.count
}

// CapRows returns a copy of the cap row behind each pin of db, nil for a
// pin that holds only its anchor.
func CapRows(db *DB) [][]byte {
	rows := make([][]byte, len(db.pins))
	for i, p := range db.pins {
		if p.cap != nil {
			rows[i] = append([]byte{}, p.cap.Row()...)
		}
	}
	return rows
}

// CheckUncached holds a verified answer from node to db's pin for it as
// a verified read does, but with an empty leaf cache, so the answer is
// folded whatever earlier reads verified.
func CheckUncached(db *DB, node int, vr *authindex.VerifiedResult) error {
	p := db.pins[node]
	return checkVerifiedAgainst(newPin(p.root, p.tuples, p.cap), vr)
}

// EmpTable is the three-employee table of the package's own tests.
var EmpTable = empTable

// BigEmpTuples is n employees, a third each in HR, IT and OPS.
var BigEmpTuples = bigEmpTuples
