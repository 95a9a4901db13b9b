package shard

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

// conjFunc is client.Cluster's QueryConj.
type conjFunc func(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error)

// bentConj wraps a cluster and bends QueryConj, the method every
// verified read goes through.
type bentConj struct {
	client.Cluster
	conj conjFunc
}

func (b bentConj) QueryConj(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
	return b.conj(name, qs, verified, check)
}

// TestClusterCannotLaunderForgedAnswers: the VerifyCheck a cluster runs
// is the client's own, but the cluster decides what it passes to it and
// what it returns. Shard 1 holds one mutated tuple; however a cluster
// routes the callback — skipping it, checking an honest answer and
// returning the forgery, or checking shard 0's answer under index 0 and
// returning it in shard 1's slot — every verified read fails naming
// shard 1, while the honest cluster answers.
func TestClusterCannotLaunderForgedAnswers(t *testing.T) {
	co, stores := newCluster(t, 2)
	scheme := shardScheme(t)
	db := client.NewShardedDB(co, scheme, "emp")
	if err := db.CreateTable(shardTable()); err != nil {
		t.Fatal(err)
	}
	roots, tuples := db.ShardRoots()

	// An honest copy of both shards, behind a second coordinator.
	pools := make([]*client.ReadPool, len(stores))
	for i, st := range stores {
		ct, err := st.Get("emp")
		if err != nil {
			t.Fatal(err)
		}
		honest := storage.NewMemory()
		if err := honest.Put("emp", ct.Clone()); err != nil {
			t.Fatal(err)
		}
		pools[i] = client.NewReadPool(startShardConn(t, honest))
	}
	hco, err := NewCoordinator(Map{Version: 1, Count: len(pools)}, pools)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate one tuple on shard 1, and read back what it says so that
	// every read below returns it.
	ct, err := stores[1].Get("emp")
	if err != nil || len(ct.Tuples) == 0 {
		t.Fatalf("shard 1 holds nothing to mutate: %v", err)
	}
	victim, err := scheme.DecryptTable(&ph.EncryptedTable{SchemeID: ct.SchemeID, Meta: ct.Meta, Tuples: ct.Tuples[:1]})
	if err != nil {
		t.Fatal(err)
	}
	mutated := ct.Clone()
	mutated.Tuples[0].ID[0] ^= 0xFF
	if err := stores[1].Put("emp", mutated); err != nil {
		t.Fatal(err)
	}
	name := relation.Eq{Column: "name", Value: victim.Tuple(0)[0]}
	dept := relation.Eq{Column: "dept", Value: victim.Tuple(0)[1]}
	reads := []struct {
		name string
		read func(db *client.DB) error
	}{
		{"Select", func(db *client.DB) error { _, err := db.Select(dept); return err }},
		{"SelectConj", func(db *client.DB) error { _, err := db.SelectConj([]relation.Eq{dept, name}); return err }},
		{"SelectMany", func(db *client.DB) error { _, err := db.SelectMany([]relation.Eq{dept, name}); return err }},
	}
	pinned := func(t *testing.T, cl client.Cluster) *client.DB {
		t.Helper()
		db := client.NewShardedDB(cl, scheme, "emp")
		if err := db.PinShardRoots(roots, tuples); err != nil {
			t.Fatal(err)
		}
		return db
	}

	t.Run("honest cluster", func(t *testing.T) {
		db := pinned(t, hco)
		for _, r := range reads {
			if err := r.read(db); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
	})
	for _, tc := range []struct {
		name string
		conj conjFunc
	}{
		{"callback skipped", func(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
			return co.QueryConj(name, qs, verified, nil)
		}},
		{"honest answer checked, forgery returned", func(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
			honest, err := hco.QueryConj(name, qs, verified, nil)
			if err != nil {
				return nil, err
			}
			for i, resp := range honest {
				if err := check(i, resp.Verified); err != nil {
					return nil, err
				}
			}
			return co.QueryConj(name, qs, verified, nil)
		}},
		{"shard 0's answer in shard 1's slot", func(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
			resps, err := co.QueryConj(name, qs, verified, nil)
			if err != nil {
				return nil, err
			}
			if err := check(0, resps[0].Verified); err != nil {
				return nil, err
			}
			resps[1] = resps[0]
			return resps, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := pinned(t, bentConj{Cluster: co, conj: tc.conj})
			for _, r := range reads {
				if err := r.read(db); err == nil || !strings.Contains(err.Error(), "shard 1") {
					t.Fatalf("%s: forged sub-answer accepted or not blamed on shard 1: %v", r.name, err)
				}
			}
		})
	}
}

// strayAck reports a placement for every shard whose part of an insert
// was empty.
type strayAck struct{ *Coordinator }

func (s strayAck) Insert(name string, tuples []ph.EncryptedTuple) ([]client.InsertAck, error) {
	acks, err := s.Coordinator.Insert(name, tuples)
	for i, part := range s.Split(tuples) {
		if err == nil && len(part) == 0 {
			acks[i] = client.InsertAck{Base: 1 << 20, Count: 1}
		}
	}
	return acks, err
}

// TestShardedInsertRefusesStrayAck: an ack for a shard the client sent
// nothing claims tuples it cannot hash. The insert is refused naming
// RepinRoot, and no entry of the vector moves — not even the touched
// shard's, whose own ack was sound.
func TestShardedInsertRefusesStrayAck(t *testing.T) {
	co, _ := newCluster(t, 2)
	db := client.NewShardedDB(strayAck{co}, shardScheme(t), "emp")
	if err := db.CreateTable(shardTable()); err != nil {
		t.Fatal(err)
	}
	roots, tuples := db.ShardRoots()
	err := db.Insert(relation.Tuple{relation.String("stray"), relation.String("HR"), relation.Int(1)})
	if err == nil || !strings.Contains(err.Error(), "RepinRoot") {
		t.Fatalf("ack for an untouched shard accepted: %v", err)
	}
	after, afterTuples := db.ShardRoots()
	for i := range roots {
		if !bytes.Equal(after[i], roots[i]) || afterTuples[i] != tuples[i] {
			t.Fatalf("shard %d's pin moved on a refused insert", i)
		}
	}
}

// replayScheme wraps a scheme so that encrypting the same plaintext
// tuples twice yields the same ciphertext: two DBs fed the same tuples
// then hold identical tables, and their roots can be compared.
type replayScheme struct {
	ph.Scheme
	mu   sync.Mutex
	seen map[string]*ph.EncryptedTable
}

func (s *replayScheme) EncryptTable(t *relation.Table) (*ph.EncryptedTable, error) {
	key := fmt.Sprint(t.Tuples())
	s.mu.Lock()
	defer s.mu.Unlock()
	if ct, ok := s.seen[key]; ok {
		return ct.Clone(), nil
	}
	ct, err := s.Scheme.EncryptTable(t)
	if err != nil {
		return nil, err
	}
	s.seen[key] = ct.Clone()
	return ct, nil
}

// TestOneNodeIsOneShard: a single server is the one-node case of the
// pinned root vector. Fed the same ciphertext, a single-server DB and a
// DB over a 1-shard coordinator pin the same root through CreateTable,
// Insert and InsertBatch, across a restart from the persisted anchor
// (the frontier rebuild verified) and a RepinRoot; they give the same
// answers, and the same refusals once both stores are tampered with.
func TestOneNodeIsOneShard(t *testing.T) {
	scheme := &replayScheme{Scheme: shardScheme(t), seen: map[string]*ph.EncryptedTable{}}
	st := storage.NewMemory()
	srv := server.New(st, nil)
	dial := func() (*client.Conn, error) {
		cliSide, srvSide := net.Pipe()
		go srv.ServeConn(srvSide)
		return client.NewConn(cliSide), nil
	}
	open := func() *client.DB {
		conn, _ := dial()
		t.Cleanup(func() { conn.Close() })
		return client.NewDB(conn, scheme, "emp")
	}
	co, stores := newCluster(t, 1)
	single, one := open(), client.NewShardedDB(co, scheme, "emp")
	both := func(label string, op func(db *client.DB) error) {
		t.Helper()
		for _, db := range []*client.DB{single, one} {
			if err := op(db); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		root, n := single.Root()
		roots, ns := one.ShardRoots()
		if root == nil || len(roots) != 1 || !bytes.Equal(root, roots[0]) || n != ns[0] {
			t.Fatalf("%s: single-server root (%d tuples) is not the 1-shard vector's entry (%v)", label, n, ns)
		}
	}
	hires := func(prefix string, k int) []relation.Tuple {
		out := make([]relation.Tuple, k)
		for i := range out {
			out[i] = relation.Tuple{relation.String(fmt.Sprintf("%s%d", prefix, i)), relation.String("IT"), relation.Int(int64(7000 + i))}
		}
		return out
	}
	both("create", func(db *client.DB) error { return db.CreateTable(shardTable()) })
	both("insert", func(db *client.DB) error { return db.Insert(hires("ins", 3)...) })
	// One worker keeps the chunks in order, as the cluster's one insert does.
	both("insert batch", func(db *client.DB) error { return db.InsertBatch(dial, 1, 2, hires("batch", 7)...) })

	// Restart from the persisted anchors: the next insert rebuilds the
	// frontier from a fetch verified against them.
	root, n := single.Root()
	roots, ns := one.ShardRoots()
	restart := func() {
		single, one = open(), client.NewShardedDB(co, scheme, "emp")
		single.PinRoot(root, n)
		if err := one.PinShardRoots(roots, ns); err != nil {
			t.Fatal(err)
		}
	}
	restart()
	both("insert after restart", func(db *client.DB) error { return db.Insert(hires("late", 1)...) })
	both("repin", func(db *client.DB) error { return db.RepinRoot() })
	root, n = single.Root()
	roots, ns = one.ShardRoots()

	plans := [][]relation.Eq{
		{{Column: "dept", Value: relation.String("IT")}},
		{{Column: "dept", Value: relation.String("IT")}, {Column: "salary", Value: relation.Int(7001)}},
		{{Column: "name", Value: relation.String("emp07")}},
	}
	for _, eqs := range plans {
		a, err := single.SelectConj(eqs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := one.SelectConj(eqs)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprint(eqs), b, a)
	}

	// Tamper with the same tuple of both (identical) tables.
	for _, s := range []*storage.Store{st, stores[0]} {
		ct, err := s.Get("emp")
		if err != nil {
			t.Fatal(err)
		}
		mutated := ct.Clone()
		mutated.Tuples[0].ID[0] ^= 0xFF
		if err := s.Put("emp", mutated); err != nil {
			t.Fatal(err)
		}
	}
	refused := 0
	for _, dept := range []string{"HR", "IT", "OPS"} {
		q := relation.Eq{Column: "dept", Value: relation.String(dept)}
		_, errSingle := single.Select(q)
		_, errOne := one.Select(q)
		if (errSingle == nil) != (errOne == nil) {
			t.Fatalf("dept %s: single server %v, one shard %v", dept, errSingle, errOne)
		}
		if errSingle != nil {
			if !strings.Contains(errSingle.Error(), "verification failed") || !strings.Contains(errOne.Error(), "verification failed") {
				t.Fatalf("dept %s: refusals differ: %v / %v", dept, errSingle, errOne)
			}
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no select touched the tampered tuple")
	}
	restart()
	for _, db := range []*client.DB{single, one} {
		if err := db.Insert(hires("after", 1)...); err == nil || !strings.Contains(err.Error(), "verification failed") {
			t.Fatalf("frontier rebuild over a tampered store not refused: %v", err)
		}
	}
}
