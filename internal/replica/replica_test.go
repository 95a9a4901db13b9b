package replica

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
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
)

// primary is a durable store behind a restartable in-process server,
// with a kill switch over every connection it handed to followers.
type primary struct {
	t    *testing.T
	path string

	mu    sync.Mutex
	store *storage.Store
	srv   *server.Server
	conns []net.Conn
}

func newPrimary(t *testing.T) *primary {
	t.Helper()
	return newPrimaryOptions(t, storage.Options{})
}

// newPrimaryOptions is newPrimary with its store opened under opts; a
// restart reopens the log with none.
func newPrimaryOptions(t *testing.T, opts storage.Options) *primary {
	t.Helper()
	p := &primary{t: t, path: filepath.Join(t.TempDir(), "wal.log")}
	st, err := storage.OpenOptions(p.path, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.store, p.srv = st, server.New(st, nil)
	t.Cleanup(func() { p.store.Close() })
	return p
}

// dial hands out a pipe served by the primary's *current* server, so a
// restart is transparent to redialing followers.
func (p *primary) dial() (*client.Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.srv == nil {
		return nil, fmt.Errorf("primary is down")
	}
	cliSide, srvSide := net.Pipe()
	go p.srv.ServeConn(srvSide)
	p.conns = append(p.conns, cliSide, srvSide)
	return client.NewConn(cliSide), nil
}

// killConns severs every connection handed out so far — the follower
// sees a torn stream mid-ship and must redial and resume.
func (p *primary) killConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// restart closes the store and server and reopens the same log file,
// as a crashed-and-recovered primary would.
func (p *primary) restart() {
	p.t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	if err := p.store.Close(); err != nil {
		p.t.Fatal(err)
	}
	st, err := storage.Open(p.path)
	if err != nil {
		p.t.Fatal(err)
	}
	p.store, p.srv = st, server.New(st, nil)
}

func empSchema() *relation.Schema {
	return relation.MustSchema("emp",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 10},
		relation.Column{Name: "dept", Type: relation.TypeString, Width: 5},
	)
}

func newScheme(t *testing.T) ph.Scheme {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(key, empSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seed uploads n encrypted tuples to the primary under name.
func seed(t *testing.T, p *primary, s ph.Scheme, name string, n int) {
	t.Helper()
	tbl := relation.NewTable(empSchema())
	for i := 0; i < n; i++ {
		tbl.MustInsert(relation.String(fmt.Sprintf("emp%04d", i)), relation.String("HR"))
	}
	ct, err := s.EncryptTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.store.Put(name, ct); err != nil {
		t.Fatal(err)
	}
}

// appendOne appends one encrypted tuple to name on the primary.
func appendOne(t *testing.T, p *primary, s ph.Scheme, name string, i int) {
	t.Helper()
	tbl := relation.NewTable(empSchema())
	tbl.MustInsert(relation.String(fmt.Sprintf("apx%04d", i)), relation.String("IT"))
	ct, err := s.EncryptTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.store.Append(name, ct.Tuples); err != nil {
		t.Fatal(err)
	}
}

// waitConverged waits until the follower holds exactly the primary's
// state: same table list, and per table the same authenticated root.
// Root equality is the whole correctness claim of replication here —
// identical roots mean bit-identical tuples.
func waitConverged(t *testing.T, p *primary, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := f.WaitCaughtUp(time.Until(deadline)); err != nil {
			t.Fatal(err)
		}
		if sameState(p.store, f.Store()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged; status %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sameState(a, b *storage.Store) bool {
	la, lb := a.List(), b.List()
	if len(la) != len(lb) {
		return false
	}
	for _, info := range la {
		ra, _, _, err := a.Root(info.Name)
		if err != nil {
			return false
		}
		rb, _, _, err := b.Root(info.Name)
		if err != nil || !bytes.Equal(ra, rb) {
			return false
		}
	}
	return true
}

func fastOpts() Options {
	return Options{PollInterval: 2 * time.Millisecond}
}

// TestFollowerBootstrapsAndServesVerifiedReads: a fresh follower
// replays the primary's log and serves a verified read that checks out
// against a root pinned at the primary.
func TestFollowerBootstrapsAndServesVerifiedReads(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)

	// Create the table through a client DB so a root gets pinned.
	conn, err := p.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	db := client.NewDB(conn, s, "emp")
	tbl := relation.NewTable(empSchema())
	tbl.MustInsert(relation.String("Ada"), relation.String("IT"))
	tbl.MustInsert(relation.String("Grace"), relation.String("HR"))
	if err := db.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}

	f := New(p.dial, fastOpts())
	defer f.Close()
	waitConverged(t, p, f)

	// Route the DB's reads through the follower only: a read-only server
	// over the follower's store, and no failover candidates besides it.
	fsrv := server.NewWithOptions(f.Store(), nil, server.Options{ReadOnly: true})
	db.AddReplica(func() (*client.Conn, error) {
		cliSide, srvSide := net.Pipe()
		go fsrv.ServeConn(srvSide)
		return client.NewConn(cliSide), nil
	})
	got, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err != nil {
		t.Fatalf("verified read from follower: %v", err)
	}
	if got.Len() != 1 || got.Tuple(0)[0].Str() != "Grace" {
		t.Fatalf("follower answered wrong: %v", got)
	}
	if st := db.ReadStats(); st.ReplicaReads != 1 || st.PrimaryReads != 0 {
		t.Fatalf("read was not served by the follower: %+v", st)
	}
}

// TestFollowerResumesAfterTornStream: severing every connection while
// the follower is mid-tail leaves it with a cursor it resumes from —
// no reset, no divergence.
func TestFollowerResumesAfterTornStream(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 50)

	f := New(p.dial, fastOpts())
	defer f.Close()
	waitConverged(t, p, f)

	// Keep writing while repeatedly tearing the stream out from under
	// the follower.
	for i := 0; i < 10; i++ {
		appendOne(t, p, s, "emp", i)
		p.killConns()
	}
	waitConverged(t, p, f)
	if st := f.Status(); st.Resets != 0 {
		t.Fatalf("torn streams caused %d resets; the cursor should have survived", st.Resets)
	}
}

// TestFollowerRestartRebootstraps: a replacement follower (fresh store,
// as after a crash) bootstraps from scratch and converges.
func TestFollowerRestartRebootstraps(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 20)

	f := New(p.dial, fastOpts())
	waitConverged(t, p, f)
	f.Close()

	appendOne(t, p, s, "emp", 1)
	f2 := New(p.dial, fastOpts())
	defer f2.Close()
	waitConverged(t, p, f2)
}

// TestPrimaryRestartMidShip: the primary crashes and recovers between
// polls. Same log file, same epoch — the follower's cursor stays valid
// and replication continues without a reset.
func TestPrimaryRestartMidShip(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 30)

	f := New(p.dial, fastOpts())
	defer f.Close()
	waitConverged(t, p, f)

	p.restart()
	appendOne(t, p, s, "emp", 1)
	waitConverged(t, p, f)
	if st := f.Status(); st.Resets != 0 {
		t.Fatalf("primary restart caused %d resets; epoch is stable across restarts", st.Resets)
	}
}

// TestCompactionResetsFollower: compaction rotates the primary's log
// epoch; the follower must notice and re-bootstrap from a snapshot of
// the compacted state instead of silently diverging — and because the
// install swaps atomically, it stays Ready and keeps serving a
// consistent cut (the old one, then the new one) the whole way.
func TestCompactionResetsFollower(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 20)

	f := New(p.dial, fastOpts())
	defer f.Close()
	waitConverged(t, p, f)

	for i := 0; i < 5; i++ {
		appendOne(t, p, s, "emp", i)
	}
	waitConverged(t, p, f)
	if err := p.store.Compact(); err != nil {
		t.Fatal(err)
	}
	appendOne(t, p, s, "emp", 99)
	for deadline := time.Now().Add(10 * time.Second); !sameState(p.store, f.Store()); {
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged; status %+v", f.Status())
		}
		if !f.Ready() {
			t.Fatal("follower went not-Ready while re-bootstrapping from a snapshot")
		}
		// Mid-bootstrap the store still holds the whole pre-compaction
		// cut (25 tuples), never an empty or partial table.
		if infos := f.Store().List(); len(infos) != 1 || infos[0].Tuples < 25 {
			t.Fatalf("follower serves %v mid-bootstrap, want the previous cut of emp", infos)
		}
		time.Sleep(time.Millisecond)
	}
	waitConverged(t, p, f)
	if st := f.Status(); st.Resets == 0 || st.Snapshots != 2 {
		t.Fatalf("compaction rotated the epoch but the follower did not re-bootstrap once: %d resets, %d snapshots", st.Resets, st.Snapshots)
	}
}

// TestFollowerAppliesConcurrentWrites hammers the primary while a
// follower tails it, then checks bit-identical convergence.
func TestFollowerAppliesConcurrentWrites(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 5)

	f := New(p.dial, fastOpts())
	defer f.Close()

	for i := 0; i < 200; i++ {
		appendOne(t, p, s, "emp", i)
		if i%50 == 49 {
			seed(t, p, s, fmt.Sprintf("t%d", i), 3)
		}
	}
	waitConverged(t, p, f)
}

// TestSnapshotCostFlatAsLogGrows: churn re-stores one table, so the
// primary's log grows with the rounds while its state does not. A fresh
// follower pays for the state, not the log: exactly one snapshot
// install, no log record replayed, and snapshot bytes flat across a
// ≥ 8× longer log, ending in the primary's roots.
func TestSnapshotCostFlatAsLogGrows(t *testing.T) {
	s := newScheme(t)
	rounds := []int{1, 4, 16}
	heads := make([]uint64, len(rounds))
	snapBytes := make([]uint64, len(rounds))
	for i, w := range rounds {
		p := newPrimary(t)
		for range w {
			seed(t, p, s, "emp", 200)
		}
		_, heads[i] = p.store.LogHead()
		f := New(p.dial, fastOpts())
		waitConverged(t, p, f)
		st := f.Status()
		f.Close()
		if st.Snapshots != 1 || st.RecordsApplied != 0 {
			t.Fatalf("%d rounds: follower installed %d snapshots and applied %d log records, want 1 and 0", w, st.Snapshots, st.RecordsApplied)
		}
		snapBytes[i] = st.SnapshotBytes
	}
	if heads[2] < 8*heads[0] {
		t.Fatalf("churn grew the log only %d -> %d records, want >= 8x", heads[0], heads[2])
	}
	if 2*snapBytes[2] > 3*snapBytes[0] {
		t.Fatalf("snapshot bytes grew %d -> %d over a %dx longer log, want <= 1.5x", snapBytes[0], snapBytes[2], heads[2]/heads[0])
	}
}
