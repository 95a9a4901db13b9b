package client

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/storage"
)

// refused fails the test unless err is a verification failure.
func refused(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("%s: %v, want a verification failure", what, err)
	}
}

// TestLeafCacheRefusesForgedAnswerTwice: a leaf enters a pin's cache only
// after its answer's fold matched the pin's cap row. A forged answer
// served twice is refused twice — the first refusal must not have cached
// the forged leaf for the second to hit — and once the honest leaves are
// cached, the forgery is refused against them by name.
func TestLeafCacheRefusesForgedAnswerTwice(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	forged := verifiedAnswer(t, db, conn, "HR")
	tp := &forged.Result.Tuples[0]
	tp.ID = bytes.Clone(tp.ID)
	tp.ID[0] ^= 1
	for serve := 1; serve <= 2; serve++ {
		refused(t, "forged answer, served again", db.check(0, forged))
	}
	if n := db.pins[0].cache.Len(); n != 0 {
		t.Fatalf("refused answers left %d leaves in the cache", n)
	}
	if _, err := db.Select(hrQuery()); err != nil {
		t.Fatalf("honest select after the forgeries: %v", err)
	}
	err := db.check(0, forged)
	refused(t, "forged answer over cached leaves", err)
	if !strings.Contains(err.Error(), "verified earlier") {
		t.Fatalf("forgery over a cached leaf refused as %v, want the cached mismatch named", err)
	}
}

// TestLeafCacheEmptiedOnPinRoot: a pin the client did not derive itself
// starts with an empty cache. Table A's leaves, cached under A's root,
// must not vouch for A's tuples replayed under table B's root, although
// B has the same size and so the same sibling count at every position:
// they are held to B's cap row, and refused by it.
func TestLeafCacheEmptiedOnPinRoot(t *testing.T) {
	st := storage.NewMemory()
	conn := startPipe(t, st)
	scheme := newScheme(t)
	db := NewDB(conn, scheme, "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Select(hrQuery()); err != nil {
		t.Fatal(err)
	}
	replayed := verifiedAnswer(t, db, conn, "HR")

	other := relation.NewTable(empSchema())
	other.MustInsert(relation.String("Barbara"), relation.String("IT"), relation.Int(6100))
	other.MustInsert(relation.String("Edsger"), relation.String("OPS"), relation.Int(6200))
	other.MustInsert(relation.String("Tony"), relation.String("IT"), relation.Int(6300))
	dbB := NewDB(conn, scheme, "emp_b")
	if err := dbB.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	rootB, nB := dbB.Root()
	full, err := st.Get("emp_b")
	if err != nil {
		t.Fatal(err)
	}
	proofB, err := authindex.Build(full).ProveAnswer(replayed.Result.Positions)
	if err != nil {
		t.Fatal(err)
	}
	replayed.Root, replayed.Leaves, replayed.Multiproof = rootB, nB, proofB

	db.PinRoot(rootB, nB)
	db.pins[0].cap = authindex.CapOf(full) // what the first verified read rebuilds
	err = db.check(0, replayed)
	refused(t, "table A's answer replayed under table B's root", err)
	if !strings.Contains(err.Error(), "cap mismatch") {
		t.Fatalf("table A's answer under table B's pin refused as %v, want its leaves held to B's cap row", err)
	}
}

// splitShards is a two-shard Cluster that deals tuples alternately and
// keeps what CreateTable stores instead of serving it: enough to pin one
// root per shard and cut each shard's answers locally.
type splitShards struct {
	Cluster
	stored *ph.EncryptedTable
}

func (*splitShards) NumShards() int { return 2 }

func (*splitShards) Split(tuples []ph.EncryptedTuple) [][]ph.EncryptedTuple {
	out := make([][]ph.EncryptedTuple, 2)
	for i, tp := range tuples {
		out[i%2] = append(out[i%2], tp)
	}
	return out
}

func (c *splitShards) Store(_ string, t *ph.EncryptedTable) error {
	c.stored = t
	return nil
}

// refusingShards is splitShards whose store always fails.
type refusingShards struct{ splitShards }

func (*refusingShards) Store(string, *ph.EncryptedTable) error { return errors.New("disk full") }

// TestCreateTablePinsOnlyWhatWasStored: CreateTable hashes the roots while
// the upload is in flight, and a failed upload pins none of them.
func TestCreateTablePinsOnlyWhatWasStored(t *testing.T) {
	db := NewShardedDB(&refusingShards{}, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err == nil {
		t.Fatal("CreateTable succeeded on a store that refuses it")
	}
	if db.pins != nil {
		t.Fatalf("a failed CreateTable pinned %d roots", len(db.pins))
	}
}

// TestLeafCachePerShard: each shard's pin keeps its own cache. Shard 0's
// leaves, cached under shard 0's root, must not vouch for shard 0's
// tuples served by shard 1 at the same positions.
func TestLeafCachePerShard(t *testing.T) {
	cl := &splitShards{}
	db := NewShardedDB(cl, newScheme(t), "emp")
	tab := empTable()
	tab.MustInsert(relation.String("Alan"), relation.String("OPS"), relation.Int(6400))
	if err := db.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	parts := db.split(cl.stored)
	positions := []int{0, 1}
	answer := func(shard int, tuples []ph.EncryptedTuple) *authindex.VerifiedResult {
		proof, err := authindex.Build(parts[shard]).ProveAnswer(positions)
		if err != nil {
			t.Fatal(err)
		}
		return &authindex.VerifiedResult{
			Result: &ph.Result{Positions: positions, Tuples: tuples},
			Root:   db.pins[shard].root, Leaves: db.pins[shard].tuples, Multiproof: proof,
		}
	}
	shard0 := parts[0].Tuples
	if err := db.check(0, answer(0, shard0)); err != nil {
		t.Fatalf("shard 0's honest answer: %v", err)
	}
	refused(t, "shard 0's tuples served by shard 1", db.check(1, answer(1, shard0)))
	if err := db.check(1, answer(1, parts[1].Tuples)); err != nil {
		t.Fatalf("shard 1's honest answer: %v", err)
	}
}

// TestLeafCacheKeptOnlyAcrossOwnInserts: the client's own inserts move a
// pin in place and keep its cache; every other way a pin is made —
// CreateTable, PinRoot, PinShardRoots, RepinRoot, and the cap rebuild the
// first insert after a bare PinRoot runs — starts empty.
func TestLeafCacheKeptOnlyAcrossOwnInserts(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	fill := func() int {
		t.Helper()
		if _, err := db.Select(hrQuery()); err != nil {
			t.Fatal(err)
		}
		n := db.pins[0].cache.Len()
		if n == 0 {
			t.Fatal("a verified select cached no leaves")
		}
		return n
	}
	insert := func() {
		t.Helper()
		if err := db.Insert(relation.Tuple{relation.String("Kurt"), relation.String("OPS"), relation.Int(5100)}); err != nil {
			t.Fatal(err)
		}
	}
	cached := fill()
	insert()
	if n := db.pins[0].cache.Len(); n != cached {
		t.Fatalf("own insert: cache holds %d leaves, want the %d it held", n, cached)
	}
	for _, tc := range []struct {
		name  string
		repin func() error
	}{
		{"CreateTable", func() error { return db.CreateTable(empTable()) }},
		{"PinRoot", func() error { root, n := db.Root(); db.PinRoot(root, n); return nil }},
		{"PinShardRoots", func() error { roots, ns := db.ShardRoots(); return db.PinShardRoots(roots, ns) }},
		{"RepinRoot", db.RepinRoot},
		{"cap rebuild", func() error {
			root, n := db.Root()
			db.PinRoot(root, n)
			insert() // rebuilds the cap; a verified read would rebuild it first too
			return nil
		}},
	} {
		fill()
		if err := tc.repin(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := db.pins[0].cache.Len(); n != 0 {
			t.Fatalf("%s: the new pin's cache holds %d leaves, want none", tc.name, n)
		}
	}
}
