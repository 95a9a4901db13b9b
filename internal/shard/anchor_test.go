package shard

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
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
