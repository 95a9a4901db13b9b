package shard

import (
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
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
	if !got.Sorted().Equal(want.Sorted()) {
		t.Fatalf("read past the Byzantine follower:\n%v\nwant\n%v", got, want)
	}
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
