package shard

import (
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// startShardConn serves store over an in-memory pipe and returns the
// client side.
func startShardConn(t *testing.T, store *storage.Store) *client.Conn {
	t.Helper()
	srv := server.New(store, log.New(shardTestWriter{t}, "", 0))
	cliSide, srvSide := net.Pipe()
	go srv.ServeConn(srvSide)
	conn := client.NewConn(cliSide)
	t.Cleanup(func() { conn.Close() })
	return conn
}

type shardTestWriter struct{ t *testing.T }

func (w shardTestWriter) Write(p []byte) (int, error) {
	w.t.Logf("server: %s", strings.TrimSpace(string(p)))
	return len(p), nil
}

// newCluster builds an in-process coordinator over n piped memory
// stores and returns both, so tests can reach behind a shard's server.
func newCluster(t *testing.T, n int) (*Coordinator, []*storage.Store) {
	t.Helper()
	stores := make([]*storage.Store, n)
	pools := make([]*client.ReadPool, n)
	for i := range stores {
		stores[i] = storage.NewMemory()
		pools[i] = client.NewReadPool(startShardConn(t, stores[i]))
	}
	co, err := NewCoordinator(Map{Version: 1, Count: n}, pools)
	if err != nil {
		t.Fatal(err)
	}
	return co, stores
}

func shardSchema() *relation.Schema {
	return relation.MustSchema("emp",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 12},
		relation.Column{Name: "dept", Type: relation.TypeString, Width: 5},
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 6},
	)
}

func shardTable() *relation.Table {
	t := relation.NewTable(shardSchema())
	depts := []string{"HR", "IT", "OPS"}
	for i := 0; i < 24; i++ {
		t.MustInsert(
			relation.String(fmt.Sprintf("emp%02d", i)),
			relation.String(depts[i%len(depts)]),
			relation.Int(int64(5000+100*i)),
		)
	}
	return t
}

func shardScheme(t *testing.T) ph.Scheme {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(key, shardSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rowsOf renders a table's rows as sorted strings: sharded unions
// concatenate per-shard matches in shard order, so equivalence against
// a single-server oracle is up to row order.
func rowsOf(t *relation.Table) []string {
	rows := make([]string, t.Len())
	for i := 0; i < t.Len(); i++ {
		rows[i] = fmt.Sprintf("%v", t.Tuple(i))
	}
	sort.Strings(rows)
	return rows
}

func sameRows(t *testing.T, label string, got, want *relation.Table) {
	t.Helper()
	g, w := rowsOf(got), rowsOf(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, oracle has %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs:\n%s\nvs\n%s", label, i, g[i], w[i])
		}
	}
}

// TestReadEquivalence is Definition 1.1 over the whole read matrix:
// every request shape {single select, batch, conjunction} in both modes
// {plain, verified} on every topology {one server, in-process
// coordinator, remote coordinator} decrypts to exactly relation.Select
// on the plaintext — before and after inserts that advance the pins.
func TestReadEquivalence(t *testing.T) {
	scheme := shardScheme(t)
	topologies := map[string]func(t *testing.T) *client.DB{
		"one server": func(t *testing.T) *client.DB {
			return client.NewDB(startShardConn(t, storage.NewMemory()), scheme, "emp")
		},
		"in-process coordinator": func(t *testing.T) *client.DB {
			co, _ := newCluster(t, 4)
			return client.NewShardedDB(co, scheme, "emp")
		},
		"remote coordinator": func(t *testing.T) *client.DB {
			co, _ := newCluster(t, 4)
			remote, err := NewRemote(startProxy(t, co), Map{Version: 1, Count: 4})
			if err != nil {
				t.Fatal(err)
			}
			return client.NewShardedDB(remote, scheme, "emp")
		},
	}
	eq := func(col string, v relation.Value) relation.Eq { return relation.Eq{Column: col, Value: v} }
	plans := [][]relation.Eq{
		{eq("dept", relation.String("HR"))},
		{eq("name", relation.String("emp07"))},
		{eq("dept", relation.String("NONE"))},
		{eq("dept", relation.String("IT")), eq("salary", relation.Int(5100))},
		{eq("dept", relation.String("HR")), eq("salary", relation.Int(5100))}, // empty intersection
		{eq("dept", relation.String("OPS")), eq("salary", relation.Int(5200)), eq("name", relation.String("emp02"))},
	}
	for name, open := range topologies {
		for _, verified := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/verified=%v", name, verified), func(t *testing.T) {
				db := open(t)
				plain := shardTable()
				if err := db.CreateTable(plain); err != nil {
					t.Fatal(err)
				}
				check := func(label string) {
					t.Helper()
					if !verified { // CreateTable pins; a plain client holds no root
						db.PinRoot(nil, 0)
						if db.Cluster() != nil {
							if err := db.PinShardRoots(nil, nil); err != nil {
								t.Fatal(err)
							}
						}
					}
					var singles []relation.Eq
					for _, eqs := range plans {
						preds := make([]relation.Pred, len(eqs))
						for i, e := range eqs {
							preds[i] = e
						}
						want, err := relation.Select(plain, relation.And{Preds: preds})
						if err != nil {
							t.Fatal(err)
						}
						got, err := db.SelectConj(eqs)
						if err != nil {
							t.Fatalf("%s: conjunction %v: %v", label, eqs, err)
						}
						sameRows(t, fmt.Sprintf("%s: conjunction %v", label, eqs), got, want)
						if len(eqs) == 1 {
							singles = append(singles, eqs[0])
							if got, err = db.Select(eqs[0]); err != nil {
								t.Fatalf("%s: select %v: %v", label, eqs[0], err)
							}
							sameRows(t, fmt.Sprintf("%s: select %v", label, eqs[0]), got, want)
						}
					}
					batch, err := db.SelectMany(singles)
					if err != nil || len(batch) != len(singles) {
						t.Fatalf("%s: batch: %d answers, %v", label, len(batch), err)
					}
					for i, got := range batch {
						want, err := relation.Select(plain, singles[i])
						if err != nil {
							t.Fatal(err)
						}
						sameRows(t, fmt.Sprintf("%s: batch[%d] %v", label, i, singles[i]), got, want)
					}
				}
				check("fresh")
				extra := []relation.Tuple{
					{relation.String("newhire1"), relation.String("HR"), relation.Int(5100)},
					{relation.String("newhire2"), relation.String("IT"), relation.Int(5100)},
					{relation.String("emp07"), relation.String("OPS"), relation.Int(4200)},
				}
				if err := db.Insert(extra...); err != nil {
					t.Fatal(err)
				}
				for _, tp := range extra {
					plain.MustInsert(tp...)
				}
				check("after insert")
				if all, err := db.SelectAll(); err != nil {
					t.Fatal(err)
				} else {
					sameRows(t, "select all", all, plain)
				}
				info, err := db.Explain("SELECT * FROM emp WHERE dept = 'HR'")
				if err != nil {
					t.Fatal(err)
				}
				if db.Cluster() != nil && !strings.Contains(info, "scattered to 4 shards") {
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
type firstConjunct struct{ *Coordinator }

func (f firstConjunct) QueryConj(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
	return f.Coordinator.QueryConj(name, qs[:1], verified, check)
}

// TestConjFilterCutsASupersetAnswer: Definition 1.1 is the client's to
// keep, not the server's intersection — a sharded conjunction answered
// with its first conjunct's matches still decrypts to exactly the
// selection, plain and verified.
func TestConjFilterCutsASupersetAnswer(t *testing.T) {
	scheme := shardScheme(t)
	conj := []relation.Eq{
		{Column: "dept", Value: relation.String("IT")},
		{Column: "salary", Value: relation.Int(5100)},
	}
	plain := shardTable()
	want, err := relation.Select(plain, relation.And{Preds: []relation.Pred{conj[0], conj[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if wide, err := relation.Select(plain, conj[0]); err != nil || wide.Len() <= want.Len() {
		t.Fatalf("fixture: the first conjunct alone selects no more than the conjunction (%v)", err)
	}
	for _, verified := range []bool{false, true} {
		co, _ := newCluster(t, 2)
		db := client.NewShardedDB(firstConjunct{co}, scheme, "emp")
		if err := db.CreateTable(plain); err != nil {
			t.Fatal(err)
		}
		if !verified {
			if err := db.PinShardRoots(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		got, err := db.SelectConj(conj)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("verified=%v", verified), got, want)
	}
}

// TestShardedRootVectorPersistence: ShardRoots/PinShardRoots carry the
// root-of-roots across a client restart, and the first insert after the
// restart rebuilds per-shard frontiers verified against the vector.
func TestShardedRootVectorPersistence(t *testing.T) {
	co, _ := newCluster(t, 3)
	scheme := shardScheme(t)
	db := client.NewShardedDB(co, scheme, "emp")
	if err := db.CreateTable(shardTable()); err != nil {
		t.Fatal(err)
	}
	roots, tuples := db.ShardRoots()
	if len(roots) != 3 {
		t.Fatalf("%d pinned roots, want 3", len(roots))
	}

	// "Restart": a fresh DB with only the persisted vector.
	db2 := client.NewShardedDB(co, scheme, "emp")
	if err := db2.PinShardRoots(roots, tuples); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Select(relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err != nil {
		t.Fatalf("verified select with re-pinned vector: %v", err)
	}
	if got.Len() == 0 {
		t.Fatal("verified select returned nothing")
	}
	if err := db2.Insert(relation.Tuple{relation.String("rejoin"), relation.String("HR"), relation.Int(1)}); err != nil {
		t.Fatalf("insert after re-pin (frontier rebuild): %v", err)
	}
	got, err = db2.Select(relation.Eq{Column: "name", Value: relation.String("rejoin")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("inserted row not found: %d rows", got.Len())
	}

	// A wrong-length vector is refused.
	if err := db2.PinShardRoots(roots[:2], tuples[:2]); err == nil {
		t.Fatal("short root vector accepted")
	}
}

// TestConcurrentInsertVsScatterQuery exercises the coordinator from two
// goroutines — one inserting, one scatter-querying — under -race. The
// per-shard pools serialise access to each connection; the coordinator
// itself must be safe for concurrent scatters.
func TestConcurrentInsertVsScatterQuery(t *testing.T) {
	co, _ := newCluster(t, 4)
	scheme := shardScheme(t)
	writer := client.NewShardedDB(co, scheme, "emp")
	reader := client.NewShardedDB(co, scheme, "emp")
	if err := writer.CreateTable(shardTable()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	errCh := make(chan error, 2)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			err := writer.Insert(relation.Tuple{
				relation.String(fmt.Sprintf("conc%02d", i)),
				relation.String("HR"),
				relation.Int(int64(i)),
			})
			if err != nil {
				errCh <- fmt.Errorf("insert %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			got, err := reader.Select(relation.Eq{Column: "dept", Value: relation.String("IT")})
			if err != nil {
				errCh <- fmt.Errorf("select %d: %w", i, err)
				return
			}
			if got.Len() == 0 {
				errCh <- fmt.Errorf("select %d returned nothing", i)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestKillShardMidQuery: severing one shard's only connection turns the
// scatter into a deterministic error naming the shard — no hang, no
// partial merge — while a shard with a replica rides through the loss
// of a follower with quarantine + failover.
func TestKillShardMidQuery(t *testing.T) {
	stores := []*storage.Store{storage.NewMemory(), storage.NewMemory(), storage.NewMemory()}
	conns := make([]*client.Conn, 3)
	pools := make([]*client.ReadPool, 3)
	for i := range stores {
		conns[i] = startShardConn(t, stores[i])
		pools[i] = client.NewReadPool(conns[i])
	}
	// Shard 2 gets a flaky replica: first dial works, then dies.
	srv2 := server.New(stores[2], nil)
	var handed []net.Conn
	dead := false
	pools[2].AddReplica(func() (*client.Conn, error) {
		if dead {
			return nil, fmt.Errorf("replica is down")
		}
		cliSide, srvSide := net.Pipe()
		go srv2.ServeConn(srvSide)
		handed = append(handed, cliSide, srvSide)
		return client.NewConn(cliSide), nil
	})
	co, err := NewCoordinator(Map{Version: 1, Count: 3}, pools)
	if err != nil {
		t.Fatal(err)
	}
	scheme := shardScheme(t)
	db := client.NewShardedDB(co, scheme, "emp")
	if err := db.CreateTable(shardTable()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")}); err != nil {
		t.Fatalf("healthy scatter: %v", err)
	}

	// Kill shard 2's replica: reads fail over to its primary.
	dead = true
	for _, c := range handed {
		c.Close()
	}
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")}); err != nil {
		t.Fatalf("scatter after replica loss: %v", err)
	}
	stats := co.ShardStats()
	if stats[2].ReplicaFailures == 0 && stats[2].Failovers == 0 {
		t.Fatalf("replica loss left no trace in shard 2 stats: %+v", stats[2])
	}

	// Kill shard 1 outright: the scatter fails loudly, naming the shard.
	conns[1].Close()
	_, err = db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err == nil {
		t.Fatal("scatter with a dead shard succeeded")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error does not name the dead shard: %v", err)
	}
}

// TestByzantineShardDrill: one mutated tuple on one shard.
//
// Sole-primary variant: the pinned root vector rejects the shard's
// sub-answer and the whole read fails loudly — the merge is never
// poisoned — and once the honest partition is restored the tier serves
// the plaintext answer again. Byzantine-follower variant: the
// verification callback runs inside the shard's read routing, so the
// lying follower is quarantined like a dead one, the shard's primary
// serves the retry, and the read succeeds while the failure is counted.
func TestByzantineShardDrill(t *testing.T) {
	co, stores := newCluster(t, 4)
	scheme := shardScheme(t)
	db := client.NewShardedDB(co, scheme, "emp")
	plain := shardTable()
	if err := db.CreateTable(plain); err != nil {
		t.Fatal(err)
	}

	// Find a shard that actually holds tuples and flip one ciphertext
	// byte behind the authenticated index.
	target := -1
	var honest *ph.EncryptedTable
	for i, st := range stores {
		ct, err := st.Get("emp")
		if err != nil {
			t.Fatal(err)
		}
		if len(ct.Tuples) > 0 {
			target, honest = i, ct
			mutated := ct.Clone()
			mutated.Tuples[0].ID[0] ^= 0xFF
			if err := st.Put("emp", mutated); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if target < 0 {
		t.Fatal("no shard holds tuples")
	}

	hr := relation.Eq{Column: "dept", Value: relation.String("HR")}
	_, err := db.Select(hr)
	if err == nil {
		t.Fatal("verified scatter accepted a mutated shard")
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("rejection does not name the shard: %v", err)
	}

	// Restore the honest partition: the refusal was the forged bytes',
	// not the tier's, so the next verified read is the plaintext answer.
	if err := stores[target].Put("emp", honest); err != nil {
		t.Fatal(err)
	}
	got, err := db.Select(hr)
	if err != nil {
		t.Fatalf("verified scatter after restoring shard %d: %v", target, err)
	}
	want, err := relation.Select(plain, hr)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-restore read", got, want)
}

func TestByzantineFollowerQuarantinedShardKeepsServing(t *testing.T) {
	// Three honest shards; shard 0 additionally has a Byzantine
	// follower serving a mutated copy of its partition.
	co, stores := newCluster(t, 3)
	scheme := shardScheme(t)
	db := client.NewShardedDB(co, scheme, "emp")
	plain := shardTable()
	if err := db.CreateTable(plain); err != nil {
		t.Fatal(err)
	}

	target := -1
	for i, st := range stores {
		ct, err := st.Get("emp")
		if err != nil {
			t.Fatal(err)
		}
		if len(ct.Tuples) == 0 {
			continue
		}
		target = i
		evil := storage.NewMemory()
		mutated := ct.Clone()
		mutated.Tuples[0].ID[0] ^= 0xFF
		if err := evil.Put("emp", mutated); err != nil {
			t.Fatal(err)
		}
		evilSrv := server.New(evil, nil)
		co.pools[i].AddReplicas(client.DialConfig{DialFunc: func(string) (net.Conn, error) {
			cliSide, srvSide := net.Pipe()
			go evilSrv.ServeConn(srvSide)
			return cliSide, nil
		}}, "byzantine")
		break
	}
	if target < 0 {
		t.Fatal("no shard holds tuples")
	}

	// The read succeeds: the follower's mutated sub-answer fails the
	// pinned vector inside the routing, quarantines it, and the shard's
	// primary answers the retry.
	hr := relation.Eq{Column: "dept", Value: relation.String("HR")}
	got, err := db.Select(hr)
	if err != nil {
		t.Fatalf("verified scatter with Byzantine follower: %v", err)
	}
	want, err := relation.Select(plain, hr)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "read past the Byzantine follower", got, want)
	stats := co.ShardStats()
	if stats[target].ReplicaFailures == 0 {
		t.Fatalf("Byzantine follower was not detected: %+v", stats[target])
	}
}

// barrier releases its waiters once want of them have arrived.
type barrier struct {
	mu      sync.Mutex
	arrived int
	want    int
	all     chan struct{}
}

// wait reports whether every expected waiter arrived within timeout.
func (b *barrier) wait(timeout time.Duration) bool {
	b.mu.Lock()
	if b.arrived++; b.arrived == b.want {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
		return true
	case <-time.After(timeout):
		return false
	}
}

// barrierBackend answers a directory listing only once every shard's
// request is in flight.
type barrierBackend struct{ b *barrier }

func (bb barrierBackend) HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error) {
	if !bb.b.wait(2 * time.Second) {
		return wire.Frame{}, fmt.Errorf("barrier: not every shard's request was in flight within 2s")
	}
	infos := []wire.TableInfo{{Name: "t", SchemeID: core.SchemeID, Tuples: 1}}
	return wire.Frame{Type: wire.RespList, Payload: wire.EncodeList(scratch, infos)}, nil
}

func (barrierBackend) Sync() error { return nil }

// TestScatterRunsShardsConcurrently: every shard's backend answers only
// once all four shards' requests are in flight, so a scatter succeeds
// only if it has them in flight at once. This is the timing-free form of
// the claim that a sharded read costs the slowest shard, not the sum.
// With scatter rewritten as a serial loop the test fails: the first
// shard's request waits out the barrier alone.
func TestScatterRunsShardsConcurrently(t *testing.T) {
	const n = 4
	b := &barrier{want: n, all: make(chan struct{})}
	pools := make([]*client.ReadPool, n)
	for i := range pools {
		srv := server.NewProxy(barrierBackend{b}, log.New(shardTestWriter{t}, "", 0), server.Options{})
		cliSide, srvSide := net.Pipe()
		go srv.ServeConn(srvSide)
		conn := client.NewConn(cliSide)
		t.Cleanup(func() { conn.Close() })
		pools[i] = client.NewReadPool(conn)
	}
	co, err := NewCoordinator(Map{Version: 1, Count: n}, pools)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := co.List()
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if len(infos) != 1 || infos[0].Tuples != n {
		t.Fatalf("merged listing %+v, want one table with %d tuples", infos, n)
	}
}
