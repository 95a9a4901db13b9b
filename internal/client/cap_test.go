package client_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/authindex"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wire"
)

// capRig is one table, "staff", served by a single server or by a
// 2-shard coordinator over net.Pipe, with what a test needs to reach
// behind it: each node's store and connection, and a count of the frames
// of one command sent to any node.
type capRig struct {
	scheme ph.Scheme
	stores []*storage.Store
	conns  []*client.Conn
	counts []func(cmd byte) int
	co     *shard.Coordinator // nil on a single server
}

func newCapRig(t *testing.T, shards int) *capRig {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	r := &capRig{}
	if r.scheme, err = core.New(key, staffSchema(), core.Options{}); err != nil {
		t.Fatal(err)
	}
	var pools []*client.ReadPool
	for i := 0; i < max(shards, 1); i++ {
		st := storage.NewMemory()
		conn, count := client.CountingPipe(t, st)
		r.stores, r.conns, r.counts = append(r.stores, st), append(r.conns, conn), append(r.counts, count)
		pools = append(pools, client.NewReadPool(conn))
	}
	if shards > 0 {
		if r.co, err = shard.NewCoordinator(shard.Map{Version: 1, Count: shards}, pools); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// db returns a new client of the rig's table, pinning nothing yet.
func (r *capRig) db() *client.DB {
	if r.co != nil {
		return client.NewShardedDB(r.co, r.scheme, "staff")
	}
	return client.NewDB(r.conns[0], r.scheme, "staff")
}

// sent is how many frames of cmd the nodes have been sent in all.
func (r *capRig) sent(cmd byte) int {
	n := 0
	for _, count := range r.counts {
		n += count(cmd)
	}
	return n
}

// treeOf is the authoritative tree of node i's partition.
func (r *capRig) treeOf(t *testing.T, i int) *authindex.Tree {
	t.Helper()
	tab, err := r.stores[i].Get("staff")
	if err != nil {
		t.Fatal(err)
	}
	return authindex.Build(tab)
}

func staffSchema() *relation.Schema {
	return relation.MustSchema("staff",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 10},
		relation.Column{Name: "dept", Type: relation.TypeString, Width: 5},
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 6},
	)
}

// staff returns rows [from, to): row i is in dept HR, IT or OPS by
// i mod 3 and earns i, which no other row does.
func staff(from, to int) []relation.Tuple {
	depts := []string{"HR", "IT", "OPS"}
	out := make([]relation.Tuple, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, relation.Tuple{relation.String(fmt.Sprintf("n%d", i)), relation.String(depts[i%3]), relation.Int(int64(i))})
	}
	return out
}

func staffTable(n int) *relation.Table {
	t := relation.NewTable(staffSchema())
	for _, tp := range staff(0, n) {
		t.MustInsert(tp...)
	}
	return t
}

func dept(d string) relation.Eq { return relation.Eq{Column: "dept", Value: relation.String(d)} }

func salary(s int) relation.Eq { return relation.Eq{Column: "salary", Value: relation.Int(int64(s))} }

// capLevel is c(n), counted here apart from authindex: how often an
// n-leaf level halves before it is at most CapNodes wide.
func capLevel(n int) int {
	c := 0
	for ; n > authindex.CapNodes; n = (n + 1) / 2 {
		c++
	}
	return c
}

// rigs runs a test on a single server and on a 2-shard coordinator.
func rigs(t *testing.T, run func(t *testing.T, r *capRig)) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { run(t, newCapRig(t, shards)) })
	}
}

// TestVerifiedReadsAboveTheCap grows a pinned table from 4,000 tuples
// across CapNodes and 2 × CapNodes tuples on every node, so each node's
// cap level moves 0 → 1 → 2. After each step verified Select, SelectConj
// and SelectMany answers are accepted and exact, and the client's cap
// row of each node is the server tree's. Above the cap, each way of
// bending a node's answer is refused, naming what failed.
func TestVerifiedReadsAboveTheCap(t *testing.T) {
	rigs(t, func(t *testing.T, r *capRig) {
		db := r.db()
		n := 4000
		if err := db.CreateTable(staffTable(n)); err != nil {
			t.Fatal(err)
		}
		for _, level := range []int{0, 1, 2} {
			// Insert until every node's partition is at this level.
			for {
				_, counts := db.ShardRoots()
				if capLevel(slices.Min(counts)) >= level {
					break
				}
				if err := db.Insert(staff(n, n+512)...); err != nil {
					t.Fatal(err)
				}
				n += 512
			}
			checkReads(t, db, n)
			_, counts := db.ShardRoots()
			for i, row := range client.CapRows(db) {
				if capLevel(counts[i]) != level {
					t.Fatalf("node %d holds %d tuples, at cap level %d, want %d", i, counts[i], capLevel(counts[i]), level)
				}
				if !bytes.Equal(row, r.treeOf(t, i).CapRow()) {
					t.Fatalf("%d tuples: node %d's cap row differs from the server tree's level %d", n, i, level)
				}
			}
			if level > 0 {
				checkForgeries(t, r, db, n)
			}
		}
	})
}

// checkReads runs verified reads over rows [0, n) and holds each answer
// to the plaintext.
func checkReads(t *testing.T, db *client.DB, n int) {
	t.Helper()
	hr, err := db.Select(dept("HR"))
	if err != nil {
		t.Fatalf("%d tuples: verified Select: %v", n, err)
	}
	conj, err := db.SelectConj([]relation.Eq{dept("IT"), salary(n - 1 - (n-2)%3)}) // the last IT row
	if err != nil {
		t.Fatalf("%d tuples: verified SelectConj: %v", n, err)
	}
	many, err := db.SelectMany([]relation.Eq{dept("OPS"), salary(7)})
	if err != nil {
		t.Fatalf("%d tuples: verified SelectMany: %v", n, err)
	}
	if hr.Len() != (n+2)/3 || conj.Len() != 1 || many[0].Len() != n/3 || many[1].Len() != 1 {
		t.Fatalf("%d tuples: HR %d rows, IT conjunction %d, OPS %d, salary 7 %d; want %d, 1, %d, 1",
			n, hr.Len(), conj.Len(), many[0].Len(), many[1].Len(), (n+2)/3, n/3)
	}
}

// checkForgeries bends node 0's honest verified answers in each way a
// server can and holds every one to a refusal that names it.
func checkForgeries(t *testing.T, r *capRig, db *client.DB, n int) {
	t.Helper()
	answer := func(eq relation.Eq) *authindex.VerifiedResult {
		t.Helper()
		q, err := r.scheme.EncryptQuery(eq)
		if err != nil {
			t.Fatal(err)
		}
		resps, err := r.conns[0].Read("staff", wire.ReadFlagVerified, [][]*ph.EncryptedQuery{{q}})
		if err != nil {
			t.Fatal(err)
		}
		vr := resps[0].Verified
		if err := client.CheckUncached(db, 0, vr); err != nil {
			t.Fatalf("%d tuples: honest answer refused: %v", n, err)
		}
		return vr
	}
	tree := r.treeOf(t, 0)
	block := 1 << capLevel(tree.LeafCount())
	// A row of node 0's answered alone, whose cap block and the next are
	// complete: moved to the same offset of the next block, its position
	// has siblings of the same shape.
	var one relation.Eq
	for s := 0; ; s++ {
		vr := answer(salary(s))
		if len(vr.Result.Positions) == 1 && vr.Result.Positions[0]+block < tree.LeafCount()&^(block-1) {
			one = salary(s)
			break
		}
		if s == 100 {
			t.Fatalf("%d tuples: none of the first 100 rows fits", n)
		}
	}
	for _, tc := range []struct {
		name string
		eq   relation.Eq
		bend func(vr *authindex.VerifiedResult)
		want string
	}{
		{"flipped sibling", dept("HR"), func(vr *authindex.VerifiedResult) {
			vr.Multiproof = bytes.Clone(vr.Multiproof)
			vr.Multiproof[len(vr.Multiproof)-1] ^= 1
		}, "cap mismatch"},
		{"flipped tuple byte", dept("HR"), func(vr *authindex.VerifiedResult) {
			tp := &vr.Result.Tuples[0]
			tp.ID = bytes.Clone(tp.ID)
			tp.ID[0] ^= 1
		}, "cap mismatch"},
		{"dropped sibling", dept("HR"), func(vr *authindex.VerifiedResult) {
			vr.Multiproof = vr.Multiproof[:len(vr.Multiproof)-authindex.HashSize]
		}, "need exactly"},
		{"position moved into another cap block", one, func(vr *authindex.VerifiedResult) {
			vr.Result.Positions[0] += block
		}, "cap mismatch"},
	} {
		vr := answer(tc.eq)
		if len(vr.Multiproof) == 0 {
			t.Fatalf("%d tuples, %s: the honest answer carries no sibling to bend", n, tc.name)
		}
		tc.bend(vr)
		err := client.CheckUncached(db, 0, vr)
		if err == nil || !strings.Contains(err.Error(), "verification failed") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%d tuples, %s: %v, want a verification failure naming %q", n, tc.name, err, tc.want)
		}
	}
	// A full-height proof — what a server cutting up to the root serves —
	// is refused by the decoder, before any hashing.
	vr := answer(one)
	perLeaf, err := tree.Prove(vr.Result.Positions)
	if err != nil {
		t.Fatal(err)
	}
	full := authindex.EncodeVerifiedResult(nil, &authindex.VerifiedResult{Result: vr.Result, Root: vr.Root, Leaves: vr.Leaves, Version: vr.Version, Proofs: perLeaf})
	if _, err := authindex.DecodeVerifiedResult(wire.NewBuffer(full)); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("%d tuples, full-height proof: %v, want the decoder's bound named", n, err)
	}
}

// TestPinRootFirstVerifiedReadFetchesOnce: after a restart-style pin of
// the anchors alone, the first verified read rebuilds the caps from one
// fetch per node, verified against the anchors; the insert and the read
// after it fetch nothing. A bogus anchor refuses the first read.
func TestPinRootFirstVerifiedReadFetchesOnce(t *testing.T) {
	rigs(t, func(t *testing.T, r *capRig) {
		first := r.db()
		if err := first.CreateTable(staffTable(300)); err != nil {
			t.Fatal(err)
		}
		roots, counts := first.ShardRoots()
		pin := func(db *client.DB, roots [][]byte) {
			t.Helper()
			if err := db.PinShardRoots(roots, counts); err != nil {
				t.Fatal(err)
			}
		}
		db := r.db()
		if r.co == nil {
			db.PinRoot(roots[0], counts[0]) // the single-server spelling
		} else {
			pin(db, roots)
		}
		before := r.sent(wire.CmdFetchAll)
		if got, err := db.Select(dept("HR")); err != nil || got.Len() != 100 {
			t.Fatalf("first verified read after the pin: %v rows, %v", got, err)
		}
		if err := db.Insert(staff(300, 304)...); err != nil {
			t.Fatal(err)
		}
		if got, err := db.Select(dept("HR")); err != nil || got.Len() != 102 {
			t.Fatalf("verified read after the insert: %v rows, %v", got, err)
		}
		if fetched, nodes := r.sent(wire.CmdFetchAll)-before, len(r.stores); fetched != nodes {
			t.Fatalf("pin, read, insert, read fetched %d tables from %d nodes, want one each", fetched, nodes)
		}

		bogus := r.db()
		zeros := make([][]byte, len(roots))
		for i := range zeros {
			zeros[i] = make([]byte, authindex.HashSize)
		}
		pin(bogus, zeros)
		if _, err := bogus.Select(dept("HR")); err == nil || !strings.Contains(err.Error(), "verification failed") {
			t.Fatalf("first read under a bogus anchor: %v, want a verification failure", err)
		}
	})
}
