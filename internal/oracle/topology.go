package oracle

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Topology is one way to serve the table: one server, with or without a
// follower, or shards behind a coordinator.
type Topology struct {
	Name    string
	shards  int  // 0: one server
	durable bool // one server over a log on disk
	follow  bool // and a follower of its log (node 1)
	serve   func(tb testing.TB, srv *server.Server) func() (net.Conn, error)
	wrap    func(tb testing.TB, co *shard.Coordinator) client.Cluster
}

// Memory is a memory store behind server.Server over net.Pipe.
func Memory() Topology { return Single("memory", pipe) }

// Durable is a store on disk behind server.Server over net.Pipe. Its
// log is wrapped in a fault.File with each reopen's fault plan, and
// every reopen is a crash.
func Durable() Topology { return Topology{Name: "durable", durable: true, serve: pipe} }

// Replicated is Durable with a follower of its log as node 1: a
// replica.Follower on a durable store of its own, bootstrapped from a
// snapshot and fed by WAL shipping over a ship link the history can cut,
// behind a read-only server gated on the follower's Ready. Both clients
// read through it (DB.AddReplica) and fail over to the primary.
func Replicated() Topology {
	return Topology{Name: "replicated", durable: true, follow: true, serve: pipe}
}

// Sharded is an in-process shard.Coordinator over n memory stores, each
// behind its own server.Server over net.Pipe.
func Sharded(n int) Topology { return Clustered(fmt.Sprintf("%d shards", n), n, nil) }

// Single is a memory store behind server.Server, reached by the dialer
// serve returns.
func Single(name string, serve func(tb testing.TB, srv *server.Server) func() (net.Conn, error)) Topology {
	return Topology{Name: name, serve: serve}
}

// Clustered is Sharded(n) reached through wrap's cluster.
func Clustered(name string, n int, wrap func(tb testing.TB, co *shard.Coordinator) client.Cluster) Topology {
	return Topology{Name: name, shards: n, wrap: wrap, serve: pipe}
}

// pipe serves srv over net.Pipe.
func pipe(_ testing.TB, srv *server.Server) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		go srv.ServeConn(s)
		return c, nil
	}
}

// tier is one topology running a history: its stores and servers, and
// two clients over them — db pins the roots, plain holds none.
type tier struct {
	Topology
	tb        testing.TB
	scheme    ph.Scheme
	table     string
	taps      []*Tap // one per node, on both clients' connections to it
	stores    []*storage.Store
	abandoned []*storage.Store // durable stores left behind by a crash
	servers   []*server.Server
	dials     []func() (net.Conn, error)
	conns     []*client.Conn
	cluster   client.Cluster
	db, plain *client.DB
	path      string
	plan      fault.FilePlan // the durable log's faults
	model     model
	diverged  bool      // a fault may have left the table unlike the other topologies'
	f         *follower // a Replicated topology's node 1
}

func (t *tier) faulty() bool { return t.durable && t.plan != fault.FilePlan{} }

func (t *tier) start() error {
	n := max(t.shards, 1)
	t.stores, t.servers, t.dials = make([]*storage.Store, n), make([]*server.Server, n), make([]func() (net.Conn, error), n)
	for i := range n {
		t.taps = append(t.taps, new(Tap))
		st := storage.NewMemory()
		if t.durable {
			var err error
			t.path = filepath.Join(t.tb.TempDir(), "store.log")
			if st, err = t.open(fault.FilePlan{}); err != nil {
				return err
			}
		}
		t.serveStore(i, st)
	}
	if t.follow {
		t.f, t.taps, t.dials = &follower{past: model{nil}, srv: t.servers[0]}, append(t.taps, new(Tap)), append(t.dials, nil)
		return t.restart(true)
	}
	return t.connect()
}

func (t *tier) serveStore(i int, st *storage.Store) {
	t.stores[i], t.servers[i] = st, server.New(st, nil)
	t.dials[i] = t.serve(t.tb, t.servers[i])
	if t.f != nil {
		t.f.serve(t.servers[i])
	}
}

// open opens the durable store with plan's faults on every log handle it
// writes through.
func (t *tier) open(plan fault.FilePlan) (*storage.Store, error) {
	t.plan = plan
	return storage.OpenOptions(t.path, storage.Options{WrapLog: func(f storage.LogFile) storage.LogFile {
		return fault.NewFile(f, plan)
	}})
}

// connect opens both clients over fresh connections, the pinned one from
// the roots the last one persisted.
func (t *tier) connect() error {
	var roots [][]byte
	var counts []int
	if t.db != nil {
		roots, counts = t.db.ShardRoots()
	}
	t.hangUp()
	conn := func(i int) *client.Conn {
		c, err := t.dial(i)
		if err != nil {
			t.tb.Fatal(err)
		}
		t.conns = append(t.conns, c)
		return c
	}
	if t.shards == 0 {
		t.db, t.plain = client.NewDB(conn(0), t.scheme, t.table), client.NewDB(conn(0), t.scheme, t.table)
		if t.f != nil {
			follower := func() (*client.Conn, error) { return conn(1), nil }
			t.db.AddReplica(follower)
			t.plain.AddReplica(follower)
		}
	} else {
		pools := make([]*client.ReadPool, t.shards)
		for i := range pools {
			pools[i] = client.NewReadPool(conn(i))
		}
		co, err := shard.NewCoordinator(shard.Map{Version: 1, Count: t.shards}, pools)
		if err != nil {
			return err
		}
		if t.cluster = client.Cluster(co); t.wrap != nil {
			t.cluster = t.wrap(t.tb, co)
		}
		t.db, t.plain = client.NewShardedDB(t.cluster, t.scheme, t.table), client.NewShardedDB(t.cluster, t.scheme, t.table)
	}
	return t.db.PinShardRoots(roots, counts)
}

// dial opens a connection to node i through its tap.
func (t *tier) dial(i int) (*client.Conn, error) {
	c, err := t.dials[i]()
	if err != nil {
		return nil, err
	}
	return client.NewConn(t.taps[i].wrap(c)), nil
}

func (t *tier) hangUp() {
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = t.conns[:0]
}

// reopen restarts the clients. A durable store crashes first: it is
// abandoned, not closed until the history ends, so whatever it has not
// synced is lost; it is reopened with plan's faults and held to the
// model (recover).
func (t *tier) reopen(plan fault.FilePlan) error {
	if !t.durable {
		return t.connect()
	}
	t.hangUp()
	t.servers[0].Close()
	if t.f != nil {
		t.f.serve(nil) // the ship link goes down with the primary
	}
	t.abandoned = append(t.abandoned, t.stores[0])
	st, err := t.open(plan)
	if err != nil {
		return fmt.Errorf("reopening after a crash: %w", err)
	}
	t.serveStore(0, st)
	if err := t.connect(); err != nil {
		return err
	}
	return t.recover()
}

// recover settles a reopened durable store's table: it must be one the
// model allows — nothing acknowledged lost, nothing unacknowledged
// half-applied — and the pinned client re-pins it when a fault had left
// it in doubt.
func (t *tier) recover() error {
	got, err := t.plain.SelectAll()
	if err != nil {
		if !slices.Contains(t.model, nil) {
			return fmt.Errorf("the table did not survive the reopen: %w", err)
		}
		t.model = model{nil} // the pinned client pins what a drop left, or nothing yet
		return nil
	}
	i := slices.IndexFunc(t.model, func(m *relation.Table) bool { return m != nil && sameRows(got, m) })
	if i < 0 {
		return fmt.Errorf("reopened, the table is %d rows, none of the %d tables the history allows:\n%vthe first:\n%v", got.Len(), len(t.model), got.Sorted(), t.model[0])
	}
	doubt := len(t.model) > 1
	if t.model = (model{t.model[i]}); doubt {
		return t.db.RepinRoot()
	}
	return nil
}

func (t *tier) close() {
	t.hangUp()
	if t.f != nil && t.f.Follower != nil {
		t.f.Close() // and with it its ship link
		t.f.Store().Close()
	}
	for i, srv := range t.servers {
		srv.Close()
		t.stores[i].Close()
	}
	for _, st := range t.abandoned {
		st.Close() // the history is over: what this writes, no one reads
	}
	t.abandoned = nil
}

// Tap sits on the client side of every connection to one node of a
// topology. While a rewrite is set, it decodes each read answer or
// downloaded table, lets the rewrite change it and re-encodes it: a
// lying node, played by the wire. It counts the read answers it passes.
type Tap struct {
	rewrite atomic.Pointer[func(resps []query.Response)]
	table   atomic.Pointer[func(t *ph.EncryptedTable)]
	answers atomic.Int64
}

// Rewrite sets the rewrite of every read answer from now on; nil stops
// rewriting.
func (p *Tap) Rewrite(f func(resps []query.Response)) {
	if f == nil {
		p.rewrite.Store(nil)
	} else {
		p.rewrite.Store(&f)
	}
}

// RewriteTable sets the rewrite of every downloaded table (CmdFetchAll)
// from now on; nil stops rewriting.
func (p *Tap) RewriteTable(f func(t *ph.EncryptedTable)) {
	if f == nil {
		p.table.Store(nil)
	} else {
		p.table.Store(&f)
	}
}

func (p *Tap) wrap(c net.Conn) net.Conn { return &tapped{Conn: c, tap: p} }

type tapped struct {
	net.Conn
	tap *Tap
	buf bytes.Buffer
}

func (c *tapped) Read(b []byte) (int, error) {
	if c.buf.Len() == 0 {
		f, err := wire.ReadFrame(c.Conn)
		if err != nil {
			return 0, err
		}
		if f.Type == wire.RespResult {
			c.tap.answers.Add(1)
		}
		if rw := c.tap.rewrite.Load(); rw != nil && f.Type == wire.RespResult {
			flags, resps, err := query.DecodeResponses(f.Payload)
			if err != nil {
				return 0, err
			}
			(*rw)(resps)
			f.Payload = query.EncodeResponses(nil, flags, resps)
		}
		if rw := c.tap.table.Load(); rw != nil && f.Type == wire.RespTable {
			t, err := wire.DecodeTable(wire.NewBuffer(f.Payload))
			if err != nil {
				return 0, err
			}
			(*rw)(t)
			f.Payload = wire.EncodeTable(nil, t)
		}
		if err := wire.WriteFrame(&c.buf, f); err != nil {
			return 0, err
		}
	}
	return c.buf.Read(b)
}

// Tamper breaks every verified answer: the first tuple's ID, which its
// leaf hash covers, or an empty answer's root. The ID also keys the
// tuple's decryption, so a client that skipped the proof would still
// fail — which is why only a failed verification counts as refusing.
func Tamper(resps []query.Response) {
	for _, r := range resps {
		switch vr := r.Verified; {
		case vr == nil:
		case len(vr.Result.Tuples) > 0:
			vr.Result.Tuples[0].ID[0] ^= 1
		default:
			vr.Root[0] ^= 1
		}
	}
}

// TamperTable breaks a downloaded table: it withholds the last row, or
// invents one for an empty table.
func TamperTable(t *ph.EncryptedTable) {
	if n := len(t.Tuples); n > 0 {
		t.Tuples = t.Tuples[:n-1]
	} else {
		t.Tuples = []ph.EncryptedTuple{{ID: make([]byte, 16), Words: [][]byte{make([]byte, 16)}}}
	}
}
