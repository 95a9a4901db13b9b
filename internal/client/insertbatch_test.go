package client

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// bigEmpTuples builds n employee tuples under empSchema.
func bigEmpTuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, 0, n)
	depts := []string{"HR", "IT", "OPS"}
	for i := 0; i < n; i++ {
		out = append(out, relation.Tuple{
			relation.String(fmt.Sprintf("emp%04d", i)),
			relation.String(depts[i%len(depts)]),
			relation.Int(int64(3000 + i)),
		})
	}
	return out
}

// TestInsertBatchDialFailure: a dial error surfaces and the feeder does
// not deadlock on the dead worker.
func TestInsertBatchDialFailure(t *testing.T) {
	st := storage.NewMemory()
	conn := startPipe(t, st)
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("no route")
	err := db.InsertBatch(func() (*Conn, error) { return nil, boom }, 2, 4, bigEmpTuples(30)...)
	if !errors.Is(err, boom) {
		t.Fatalf("dial failure not surfaced: %v", err)
	}
}
