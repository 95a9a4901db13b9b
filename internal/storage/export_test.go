package storage

// This file lends the external tests (package storage_test, which may
// import internal/server) what they need of the package's internals.

// The log record op codes.
const (
	OpStore  = opStore
	OpInsert = opInsert
	OpDrop   = opDrop
)

// LogHdrLen is the length of the header every log file starts with.
const LogHdrLen = logHdrLen

var (
	FixtureTable    = fixtureTable
	AppendWALRecord = appendWALRecord
	EachWALRecord   = eachWALRecord
	AssertSameState = assertSameState
)
