package client

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

// SelectMany used to bypass the replica-aware read routing and talk
// straight to the primary connection. These tests pin the fix: the
// batch rides withRead like every other read — replicas serve it,
// failures quarantine and fail over. (That a pinned client's batch is
// verified is TestPinnedReadsAreOneVerifiedRoundTrip's.)

// TestSelectManyRoutedThroughReplicas: with a healthy replica attached,
// the batch is served by the replica, not the primary.
func TestSelectManyRoutedThroughReplicas(t *testing.T) {
	store := storage.NewMemory()
	conn := startPipe(t, store)
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	db.PinRoot(nil, 0) // isolate the routing assertion from verification

	srv := server.New(store, nil)
	dial, _ := replicaDialer(t, srv)
	db.AddReplica(dial)

	tables, err := db.SelectMany([]relation.Eq{
		{Column: "dept", Value: relation.String("HR")},
		{Column: "dept", Value: relation.String("IT")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Len() != 2 || tables[1].Len() != 1 {
		t.Fatalf("batch results wrong: %v", tables)
	}
	stats := db.ReadStats()
	if stats.ReplicaReads == 0 {
		t.Fatalf("batch bypassed the replicas: %+v", stats)
	}
	if stats.PrimaryReads != 0 {
		t.Fatalf("batch hit the primary despite a healthy replica: %+v", stats)
	}
}

// TestSelectManyFailsOverToPrimary: a dead replica quarantines and the
// batch falls back to the primary instead of erroring.
func TestSelectManyFailsOverToPrimary(t *testing.T) {
	store := storage.NewMemory()
	conn := startPipe(t, store)
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	db.PinRoot(nil, 0)

	srv := server.New(store, nil)
	dial, kill := replicaDialer(t, srv)
	db.AddReplica(dial)
	kill()

	tables, err := db.SelectMany([]relation.Eq{{Column: "dept", Value: relation.String("HR")}})
	if err != nil {
		t.Fatalf("batch with dead replica: %v", err)
	}
	if len(tables) != 1 || tables[0].Len() != 2 {
		t.Fatalf("batch results wrong: %v", tables)
	}
	stats := db.ReadStats()
	if stats.Failovers == 0 || stats.PrimaryReads == 0 {
		t.Fatalf("dead replica did not fail over: %+v", stats)
	}
}
