package replica

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

// dialFaulty is primary.dial with the client side of every pipe wrapped
// in a fault.Conn, so the chaos tests can partition, delay, or cut the
// follower's link without touching the primary.
func dialFaulty(p *primary, plan fault.ConnPlan) func() (*client.Conn, error) {
	return func() (*client.Conn, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.srv == nil {
			return nil, fmt.Errorf("primary is down")
		}
		cliSide, srvSide := net.Pipe()
		go p.srv.ServeConn(srvSide)
		p.conns = append(p.conns, cliSide, srvSide)
		return client.NewConn(fault.NewConn(cliSide, plan)), nil
	}
}

// srvDial hands out pipes served by a fixed server.
func srvDial(srv *server.Server) func() (*client.Conn, error) {
	return func() (*client.Conn, error) {
		cliSide, srvSide := net.Pipe()
		go srv.ServeConn(srvSide)
		return client.NewConn(cliSide), nil
	}
}

// snapshotTotal measures the primary's current snapshot size, for
// mid-transfer assertions.
func snapshotTotal(t *testing.T, p *primary) uint64 {
	t.Helper()
	_, _, _, total, _, err := p.store.ReadSnapshot(0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosPrimaryCrashMidSnapshotTransfer kill-crashes the primary
// while a follower is mid-way through fetching its bootstrap snapshot.
// The restarted primary replays the same log, so the snapshot identity
// is unchanged and the transfer must resume at its offset — every byte
// fetched exactly once — and end in bit-identical roots.
func TestChaosPrimaryCrashMidSnapshotTransfer(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 600)
	total := snapshotTotal(t, p)

	f := New(dialFaulty(p, fault.ConnPlan{Delay: time.Millisecond}),
		Options{PollInterval: time.Millisecond, MaxBytes: 256})
	defer f.Close()

	waitFor(t, "mid-transfer", func() bool {
		st := f.Status()
		if st.Snapshots != 0 {
			t.Fatal("snapshot completed before the crash could land mid-transfer")
		}
		return st.SnapshotBytes > total/4
	})
	p.restart()

	waitConverged(t, p, f)
	st := f.Status()
	if st.Snapshots != 1 {
		t.Fatalf("follower installed %d snapshots, want exactly 1", st.Snapshots)
	}
	if st.SnapshotBytes != total {
		t.Fatalf("follower fetched %d snapshot bytes for a %d-byte snapshot: the transfer restarted instead of resuming", st.SnapshotBytes, total)
	}
	if !f.Ready() {
		t.Fatal("converged follower reports not ready")
	}
}

// TestChaosPartitionMidBootstrap partitions the follower's link in the
// middle of the snapshot transfer. Progress must stop dead under the
// partition, resume from the same offset when it heals, and converge —
// with the accumulated buffer surviving (no reset, no refetch).
func TestChaosPartitionMidBootstrap(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 600)
	total := snapshotTotal(t, p)

	var sw fault.Switch
	f := New(dialFaulty(p, fault.ConnPlan{Delay: time.Millisecond, Partition: &sw}),
		Options{PollInterval: time.Millisecond, MaxBytes: 256})
	defer f.Close()

	waitFor(t, "mid-transfer", func() bool {
		st := f.Status()
		if st.Snapshots != 0 {
			t.Fatal("snapshot completed before the partition could land mid-transfer")
		}
		return st.SnapshotBytes > total/4
	})
	sw.Set(true)
	time.Sleep(10 * time.Millisecond) // let any in-flight round drain
	b0 := f.Status().SnapshotBytes
	time.Sleep(30 * time.Millisecond)
	if st := f.Status(); st.SnapshotBytes != b0 || st.Snapshots != 0 {
		t.Fatalf("transfer progressed under a partition: %d -> %d bytes, %d installs", b0, st.SnapshotBytes, st.Snapshots)
	}
	sw.Set(false)

	waitConverged(t, p, f)
	st := f.Status()
	if st.Snapshots != 1 {
		t.Fatalf("follower installed %d snapshots, want exactly 1", st.Snapshots)
	}
	if st.SnapshotBytes != total {
		t.Fatalf("follower fetched %d bytes for a %d-byte snapshot: the partition voided the buffer", st.SnapshotBytes, total)
	}
	if st.Resets != 0 {
		t.Fatalf("partition caused %d resets; the transfer should have resumed", st.Resets)
	}
}

// TestChaosDiskFullFollowerConverges: the primary's disk fills mid-churn
// (fault.File fails the write that crosses its byte budget), the
// primary reopens without the fault and replays its durable prefix, and
// a fresh follower converges to that state: its roots equal the
// primary's, and a verified read it serves against the root pinned
// before the overflow is the plaintext answer.
func TestChaosDiskFullFollowerConverges(t *testing.T) {
	p := newPrimaryOptions(t, storage.Options{WrapLog: func(lf storage.LogFile) storage.LogFile {
		return fault.NewFile(lf, fault.FilePlan{FailWriteAfterBytes: 16 << 10})
	}})
	s := newScheme(t)
	conn, err := p.dial()
	if err != nil {
		t.Fatal(err)
	}
	seedDB := client.NewDB(conn, s, "emp")
	plain := relation.NewTable(empSchema())
	plain.MustInsert(relation.String("Ada"), relation.String("IT"))
	plain.MustInsert(relation.String("Grace"), relation.String("HR"))
	plain.MustInsert(relation.String("Lin"), relation.String("HR"))
	if err := seedDB.CreateTable(plain); err != nil {
		t.Fatal(err)
	}
	root, n := seedDB.Root()
	conn.Close()

	churn := relation.NewTable(empSchema())
	churn.MustInsert(relation.String("churn"), relation.String("OPS"))
	ct, err := s.EncryptTable(churn)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.store.Put("churn", ct); err != nil {
		t.Fatal(err)
	}
	full := false
	for i := 0; i < 10000 && !full; i++ {
		full = p.store.Append("churn", ct.Tuples) != nil
	}
	if !full {
		t.Fatal("churn never filled the disk")
	}

	p.restart() // space freed: the log reopens without the fault

	f := New(p.dial, fastOpts())
	defer f.Close()
	waitConverged(t, p, f)

	conn, err = p.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	db := client.NewDB(conn, s, "emp")
	db.PinRoot(root, n)
	db.AddReplica(srvDial(server.NewWithOptions(f.Store(), nil, server.Options{ReadOnly: true, Ready: f.Ready})))
	hr := relation.Eq{Column: "dept", Value: relation.String("HR")}
	got, err := db.Select(hr)
	if err != nil {
		t.Fatalf("verified read from the converged follower: %v", err)
	}
	want, err := relation.Select(plain, hr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sorted().String() != want.Sorted().String() {
		t.Fatalf("follower answered\n%s\nwant\n%s", got.Sorted(), want.Sorted())
	}
	if st := db.ReadStats(); st.ReplicaReads != 1 || st.PrimaryReads != 0 {
		t.Fatalf("read was not served by the follower: %+v", st)
	}
}

// TestChaosResetWindowUnverifiedReads is the not-yet-caught-up follower
// read window, repro and fix. Repro: an unverified Select routed to a
// replica whose store is behind the primary returns a short answer with
// no error. Fix: the follower's Ready signal, wired into the replica
// server, turns that window into refusals the client fails over from —
// zero accepted-but-wrong reads. A virgin follower (never caught up,
// empty store) is the live case of that window.
func TestChaosResetWindowUnverifiedReads(t *testing.T) {
	s := newScheme(t)
	full := relation.NewTable(empSchema())
	full.MustInsert(relation.String("Ada"), relation.String("HR"))
	full.MustInsert(relation.String("Grace"), relation.String("HR"))
	full.MustInsert(relation.String("Lin"), relation.String("HR"))
	ctFull, err := s.EncryptTable(full)
	if err != nil {
		t.Fatal(err)
	}
	prefix := relation.NewTable(empSchema())
	prefix.MustInsert(relation.String("Ada"), relation.String("HR"))
	ctPrefix, err := s.EncryptTable(prefix)
	if err != nil {
		t.Fatal(err)
	}

	pstore := storage.NewMemory()
	if err := pstore.Put("emp", ctFull); err != nil {
		t.Fatal(err)
	}
	// The replica behind the primary: same table name, only a prefix of
	// the rows.
	rstore := storage.NewMemory()
	if err := rstore.Put("emp", ctPrefix); err != nil {
		t.Fatal(err)
	}
	psrv := server.New(pstore, nil)
	hr := relation.Eq{Column: "dept", Value: relation.String("HR")}

	// --- Repro: ungated replica server, unverified client (no pinned
	// root). The wrong answer comes back with no error at all.
	conn, err := srvDial(psrv)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	db := client.NewDB(conn, s, "emp")
	db.AddReplica(srvDial(server.NewWithOptions(rstore, nil, server.Options{ReadOnly: true})))
	got, err := db.Select(hr)
	if err != nil {
		t.Fatalf("repro select: %v", err)
	}
	if got.Len() != 1 {
		t.Fatalf("repro expected the silently-wrong 1-row answer, got %d rows", got.Len())
	}
	if st := db.ReadStats(); st.ReplicaReads != 1 {
		t.Fatalf("repro read was not served by the replica: %+v", st)
	}

	// --- Fix: the same stale store behind a Ready-gated server. The
	// replica refuses, the client quarantines it and fails over, and the
	// answer is the full correct one.
	conn2, err := srvDial(psrv)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	db2 := client.NewDB(conn2, s, "emp")
	db2.AddReplica(srvDial(server.NewWithOptions(rstore, nil, server.Options{
		ReadOnly: true,
		Ready:    func() bool { return false },
	})))
	got, err = db2.Select(hr)
	if err != nil {
		t.Fatalf("gated select: %v", err)
	}
	if got.Len() != 3 {
		t.Fatalf("gated select returned %d rows, want the primary's 3", got.Len())
	}
	if st := db2.ReadStats(); st.ReplicaFailures != 1 || st.Failovers != 1 || st.PrimaryReads != 1 {
		t.Fatalf("gated read did not refuse-and-fail-over: %+v", st)
	}

	// --- The live case: a virgin follower that cannot reach its primary
	// has an empty store and is not Ready; gated by its own signal it
	// refuses, and the read fails over instead of answering zero rows.
	virgin := New(func() (*client.Conn, error) { return nil, fmt.Errorf("primary unreachable") },
		Options{PollInterval: time.Millisecond})
	defer virgin.Close()
	if virgin.Ready() {
		t.Fatal("a follower that never caught up reports Ready")
	}
	conn3, err := srvDial(psrv)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	db3 := client.NewDB(conn3, s, "emp")
	db3.AddReplica(srvDial(server.NewWithOptions(virgin.Store(), nil, server.Options{ReadOnly: true, Ready: virgin.Ready})))
	got, err = db3.Select(hr)
	if err != nil {
		t.Fatalf("virgin-follower select: %v", err)
	}
	if got.Len() != 3 {
		t.Fatalf("virgin-follower select returned %d rows, want the primary's 3", got.Len())
	}
	if st := db3.ReadStats(); st.ReplicaFailures != 1 || st.PrimaryReads != 1 {
		t.Fatalf("virgin follower's read was not refused-and-failed-over: %+v", st)
	}
}

// TestChaosDurableFollowerResume: a durable follower survives its own
// restart. The ship-base sidecar makes the reopened store a consistent
// cut with a known cursor, so the new follower is Ready immediately
// and resumes tailing — no snapshot, no re-bootstrap.
func TestChaosDurableFollowerResume(t *testing.T) {
	p := newPrimary(t)
	s := newScheme(t)
	seed(t, p, s, "emp", 30)

	fpath := filepath.Join(t.TempDir(), "follower.log")
	fst, err := storage.Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	f := New(p.dial, Options{PollInterval: 2 * time.Millisecond, Store: fst})
	waitConverged(t, p, f)
	if got := f.Status().Snapshots; got != 1 {
		t.Fatalf("fresh durable follower installed %d snapshots, want 1", got)
	}
	// A few records past the snapshot, so the resume cursor is strictly
	// beyond the installed base.
	for i := 0; i < 3; i++ {
		appendOne(t, p, s, "emp", i)
	}
	waitConverged(t, p, f)
	f.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	appendOne(t, p, s, "emp", 99)

	fst2, err := storage.Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer fst2.Close()
	f2 := New(p.dial, Options{PollInterval: 2 * time.Millisecond, Store: fst2})
	defer f2.Close()
	if !f2.Ready() {
		t.Fatal("restarted durable follower is not immediately ready")
	}
	waitConverged(t, p, f2)
	st := f2.Status()
	if st.Snapshots != 0 || st.Resets != 0 {
		t.Fatalf("restarted follower re-bootstrapped (%d snapshots, %d resets) instead of resuming its cursor", st.Snapshots, st.Resets)
	}
}
