package shard_test

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

// remote serves the coordinator as a phserver -coordinator does and
// reaches it through shard.Remote.
func remote(tb testing.TB, co *shard.Coordinator) client.Cluster {
	c, s := net.Pipe()
	go server.NewProxy(co, nil, server.Options{}).ServeConn(s)
	cl, err := shard.NewRemote(client.NewConn(c), shard.Map{Version: 1, Count: co.NumShards()})
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

var (
	hr  = oracle.Eq("dept", "HR")
	it  = oracle.Eq("dept", "IT")
	ops = oracle.Eq("dept", "OPS")
)

// TestReadEquivalence is Definition 1.1 over the whole read matrix:
// every request shape {single select, batch, conjunction, download} in
// both modes {plain, verified} on every topology {one server,
// in-process coordinator, remote coordinator} decrypts to exactly
// relation.Select on the plaintext — before and after inserts that
// advance the pins.
func TestReadEquivalence(t *testing.T) {
	scheme := shard.ShardScheme(t)
	topologies := map[string]oracle.Topology{
		"one server":             oracle.Memory(),
		"in-process coordinator": oracle.Sharded(4),
		"remote coordinator":     oracle.Clustered("remote coordinator", 4, remote),
	}
	for name, topo := range topologies {
		for _, verified := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/verified=%v", name, verified), func(t *testing.T) {
				reads := []oracle.Op{
					oracle.Select(verified, hr), oracle.Select(verified, oracle.Eq("name", "emp07")),
					oracle.Select(verified, oracle.Eq("dept", "NONE")),
					oracle.Conj(verified, it, oracle.Eq("salary", 5100)),
					oracle.Conj(verified, hr, oracle.Eq("salary", 5100)), // empty intersection
					oracle.Conj(verified, ops, oracle.Eq("salary", 5200), oracle.Eq("name", "emp02")),
					oracle.Many(verified, hr, oracle.Eq("name", "emp07"), oracle.Eq("dept", "NONE")),
				}
				r := oracle.New(t, scheme, topo)
				r.Do(oracle.Put(shard.ShardTable().Tuples()))
				r.Do(reads...)
				r.Do(oracle.Append(
					relation.Tuple{relation.String("newhire1"), relation.String("HR"), relation.Int(5100)},
					relation.Tuple{relation.String("newhire2"), relation.String("IT"), relation.Int(5100)},
					relation.Tuple{relation.String("emp07"), relation.String("OPS"), relation.Int(4200)},
				))
				r.Do(reads...)
				r.Do(oracle.All())
				info, err := r.DB(0).Explain("SELECT * FROM emp WHERE dept = 'HR'")
				if err != nil {
					t.Fatal(err)
				}
				if r.DB(0).Cluster() != nil && !strings.Contains(info, "scattered to 4 shards") {
					t.Fatalf("explain does not mention the scatter: %q", info)
				}
			})
		}
	}
}

// firstConjunct is a coordinator that answers a conjunction with its
// first conjunct's matches alone: every tuple genuine and, on a verified
// read, proved against its shard's root — a superset that only the
// client's filter, which re-evaluates every conjunct on the plaintext,
// cuts back to the selection.
type firstConjunct struct{ *shard.Coordinator }

func (f firstConjunct) QueryConj(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
	return f.Coordinator.QueryConj(name, qs[:1], verified, check)
}

// TestConjFilterCutsASupersetAnswer: Definition 1.1 is the client's to
// keep, not the server's intersection — a sharded conjunction answered
// with its first conjunct's matches still decrypts to exactly the
// selection, plain and verified.
func TestConjFilterCutsASupersetAnswer(t *testing.T) {
	plain := shard.ShardTable()
	if wide, _ := relation.Select(plain, it); wide.Len() < 2 {
		t.Fatal("fixture: the first conjunct alone selects no more than the conjunction")
	}
	r := oracle.New(t, shard.ShardScheme(t), oracle.Clustered("first conjunct", 2,
		func(_ testing.TB, co *shard.Coordinator) client.Cluster { return firstConjunct{co} }))
	r.Do(oracle.Put(plain.Tuples()),
		oracle.Conj(false, it, oracle.Eq("salary", 5100)), oracle.Conj(true, it, oracle.Eq("salary", 5100)))
}

// TestShardedRootVectorPersistence: ShardRoots/PinShardRoots carry the
// root-of-roots across a client restart, and the first verified read
// and insert after the restart rebuild per-shard frontiers verified
// against the vector.
func TestShardedRootVectorPersistence(t *testing.T) {
	r := oracle.New(t, shard.ShardScheme(t), oracle.Sharded(3))
	r.Do(oracle.Put(shard.ShardTable().Tuples()), oracle.Reopen(fault.FilePlan{}), oracle.Select(true, hr),
		oracle.Append(relation.Tuple{relation.String("rejoin"), relation.String("HR"), relation.Int(1)}),
		oracle.Select(true, oracle.Eq("name", "rejoin")))
	roots, tuples := r.DB(0).ShardRoots()
	if len(roots) != 3 {
		t.Fatalf("%d pinned roots, want 3", len(roots))
	}
	if err := r.DB(0).PinShardRoots(roots[:2], tuples[:2]); err == nil {
		t.Fatal("short root vector accepted")
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
// answers, refuse the same tampered answers, and refuse alike once both
// stores are tampered with.
func TestOneNodeIsOneShard(t *testing.T) {
	scheme := &replayScheme{Scheme: shard.ShardScheme(t), seen: map[string]*ph.EncryptedTable{}}
	r := oracle.New(t, scheme, oracle.Memory(), oracle.Sharded(1))
	sameRoot := func(label string) {
		t.Helper()
		root, n := r.DB(0).Root()
		roots, ns := r.DB(1).ShardRoots()
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
	r.Do(oracle.Put(shard.ShardTable().Tuples()))
	sameRoot("create")
	r.Do(oracle.Append(hires("ins", 3)...))
	sameRoot("insert")
	// One worker keeps the chunks in order, as the cluster's one insert does.
	r.Do(oracle.Append(hires("batch", 7)...).Batched(1, 2))
	sameRoot("insert batch")
	r.Do(oracle.Reopen(fault.FilePlan{}), oracle.Append(hires("late", 1)...))
	sameRoot("insert after restart")
	for i := range 2 {
		if err := r.DB(i).RepinRoot(); err != nil {
			t.Fatal(err)
		}
	}
	sameRoot("repin")
	r.Do(oracle.Conj(true, it).Tampered(), oracle.Conj(true, it, oracle.Eq("salary", 7001)).Tampered(),
		oracle.Conj(true, oracle.Eq("name", "emp07")).Tampered(), oracle.Select(true, hr).Tampered())

	// Tamper with the same stored tuple of both (identical) tables.
	for i := range 2 {
		mutateFirstTuple(t, r.Stores(i)[0])
	}
	refused := 0
	for _, dept := range []string{"HR", "IT", "OPS"} {
		_, errSingle := r.DB(0).Select(oracle.Eq("dept", dept))
		_, errOne := r.DB(1).Select(oracle.Eq("dept", dept))
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
	r.Do(oracle.Reopen(fault.FilePlan{}))
	for i := range 2 {
		if err := r.DB(i).Insert(hires("after", 1)...); err == nil || !strings.Contains(err.Error(), "verification failed") {
			t.Fatalf("frontier rebuild over a tampered store not refused: %v", err)
		}
	}
}

// mutateFirstTuple flips a byte of the stored table's first tuple behind
// the authenticated index, and returns the honest table.
func mutateFirstTuple(t *testing.T, st *storage.Store) *ph.EncryptedTable {
	t.Helper()
	honest, err := st.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	mutated := honest.Clone()
	mutated.Tuples[0].ID[0] ^= 0xFF
	if err := st.Put("emp", mutated); err != nil {
		t.Fatal(err)
	}
	return honest
}

// TestRemoteEndToEnd drives the full remote stack — sharded DB over a
// Remote cluster over the wire to a proxied coordinator — through
// create, verified reads, conjunctions, inserts with per-shard acks, a
// download and the Byzantine rejection, so the shard framing is
// exercised end to end rather than in process.
func TestRemoteEndToEnd(t *testing.T) {
	r := oracle.New(t, shard.ShardScheme(t), oracle.Clustered("remote coordinator", 4, remote))
	r.Do(oracle.Put(shard.ShardTable().Tuples()), oracle.Select(true, hr), oracle.Conj(true, it, oracle.Eq("salary", 5100)),
		oracle.Append(relation.Tuple{relation.String("remote1"), relation.String("HR"), relation.Int(1)}),
		oracle.Select(true, oracle.Eq("name", "remote1")), oracle.All(), oracle.Select(true, hr).Tampered())
}

// TestByzantineShardDrill: a shard that lies fails the verified
// scatter, and the refusal names that shard — so the other shards'
// answers verified. Each shard lies in turn on the wire, and then one
// shard holding tuples serves a mutated stored tuple. Once the shard
// answers honestly again the refusal was the forged bytes', not the
// tier's, and the next verified read is the plaintext answer.
func TestByzantineShardDrill(t *testing.T) {
	r := oracle.New(t, shard.ShardScheme(t), oracle.Sharded(4))
	r.Do(oracle.Put(shard.ShardTable().Tuples()))
	refused := func(label string, s int) {
		t.Helper()
		_, err := r.DB(0).Select(hr)
		if err == nil || !strings.Contains(err.Error(), "verification failed") || !strings.Contains(err.Error(), fmt.Sprintf("shard %d:", s)) {
			t.Fatalf("%s: verified scatter: %v, want a verification failure naming shard %d", label, err, s)
		}
	}
	for s := range 4 {
		r.Tap(0, s).Rewrite(oracle.Tamper)
		refused("answer tampered on the wire", s)
		r.Tap(0, s).Rewrite(nil)
		r.Do(oracle.Select(true, hr))
	}
	stores := r.Stores(0)
	target := slices.IndexFunc(stores, func(st *storage.Store) bool {
		ct, err := st.Get("emp")
		return err == nil && len(ct.Tuples) > 0
	})
	if target < 0 {
		t.Fatal("no shard holds tuples")
	}
	honest := mutateFirstTuple(t, stores[target])
	refused("stored tuple mutated", target)
	if err := stores[target].Put("emp", honest); err != nil {
		t.Fatal(err)
	}
	r.Do(oracle.Select(true, hr))
}
