package bench

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/fault"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
)

// e19StartReplicaNode fronts a follower's store with a read-only server
// whose Ready gate is the follower's catch-up signal, so a follower that
// has not caught up refuses reads instead of answering them short.
func e19StartReplicaNode(st *storage.Store, ready func() bool) (*e18Node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.NewWithOptions(st, nil, server.Options{ReadOnly: true, Ready: ready})
	go srv.Serve(l)
	return &e18Node{addr: l.Addr().String(), srv: srv}, nil
}

// e19SameRoots fails unless both stores hold identical table sets with
// bit-identical authenticated roots — the drill-ending correctness bar.
func e19SameRoots(a, b *storage.Store) error {
	la, lb := a.List(), b.List()
	if len(la) != len(lb) {
		return fmt.Errorf("table counts differ: %d vs %d", len(la), len(lb))
	}
	for _, info := range la {
		ra, na, _, err := a.Root(info.Name)
		if err != nil {
			return err
		}
		rb, nb, _, err := b.Root(info.Name)
		if err != nil {
			return err
		}
		if na != nb || !bytes.Equal(ra, rb) {
			return fmt.Errorf("roots of %q diverge: %d tuples %x vs %d tuples %x", info.Name, na, ra, nb, rb)
		}
	}
	return nil
}

// RunE19 regenerates experiment E19: snapshot-shipped replica bootstrap
// under faults. Two measurements:
//
// Catch-up cost vs log length. A churn workload re-stores a
// constant-size table W times, so the WAL grows linearly in W while
// the state stays put. Replaying the log from its origin would apply
// every record of it (LogHead counts them exactly); a bootstrapping
// follower pays the state instead (SnapshotBytes). The gate demands the
// snapshot cost stay flat (sublinear) while the log grows ≥8x.
//
// Three chaos drills, each ending in bit-identical primary/follower
// Merkle roots with zero accepted-but-wrong reads along the way:
//
//   - crash-during-install: the primary is killed and restarted while a
//     follower is mid-way through fetching its bootstrap snapshot; the
//     transfer resumes and converges.
//   - disk-full: the primary's log hits ENOSPC mid-append (injected via
//     the fault harness); the store degrades to refusing mutations,
//     reads stay correct, and a reopened primary replays exactly its
//     durable prefix, from which a follower converges.
//   - partition mid-bootstrap: the follower's link is partitioned in
//     the middle of the snapshot transfer and later healed; the
//     transfer resumes from its offset.
//
// All counters are deterministic (no timing in the gate).
func RunE19(tuples int, seed int64) (*Table, error) {
	if tuples <= 0 {
		tuples = 400
	}
	t := &Table{
		ID: "E19",
		Title: fmt.Sprintf("snapshot-shipped replica bootstrap: catch-up cost vs log length, plus chaos drills (state: %d tuples)",
			tuples),
		Header: []string{"churn rounds", "log records (replay cost)", "snapshot records", "snapshot bytes"},
		Notes: []string{
			"churn re-stores a constant-size table, so the log grows linearly while the state does not",
			"replaying the log from its origin applies every record of it (the primary's LogHead); a bootstrapping follower fetches the state and applies ~0 records",
			"all gate counters are deterministic record and byte tallies, not wall-clock times",
		},
	}

	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	table, err := e17Table(tuples, seed)
	if err != nil {
		return nil, err
	}
	scheme, err := core.New(key, table.Schema(), core.Options{})
	if err != nil {
		return nil, err
	}
	ct, err := scheme.EncryptTable(table)
	if err != nil {
		return nil, err
	}

	// --- Part 1: catch-up cost vs log length.
	rounds := []int{1, 4, 16}
	var ms []e19Meas
	for _, w := range rounds {
		m, err := e19CatchUp(ct, w)
		if err != nil {
			return nil, fmt.Errorf("bench: e19 churn %d: %w", w, err)
		}
		ms = append(ms, m)
		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%d", m.logRecs),
			fmt.Sprintf("%d", m.snapRecs), fmt.Sprintf("%d", m.snapBytes))
	}
	for i, m := range ms {
		if m.snapRecs != 0 {
			return nil, fmt.Errorf("bench: e19: snapshot follower applied %d log records at %d rounds, want 0", m.snapRecs, rounds[i])
		}
	}
	if ms[2].logRecs < 8*ms[0].logRecs {
		return nil, fmt.Errorf("bench: e19: churn produced only %dx log growth, want >= 8x", ms[2].logRecs/ms[0].logRecs)
	}
	if 2*ms[2].snapBytes > 3*ms[0].snapBytes {
		return nil, fmt.Errorf("bench: e19 gate: snapshot bootstrap cost grew %d -> %d bytes over a %dx longer log — not sublinear",
			ms[0].snapBytes, ms[2].snapBytes, ms[2].logRecs/ms[0].logRecs)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"sublinearity gate passed: the log grew %dx (%d -> %d records, what a replay would pay) while the snapshot bootstrap stayed at %d bytes",
		ms[2].logRecs/ms[0].logRecs, ms[0].logRecs, ms[2].logRecs, ms[2].snapBytes))

	// --- Part 2: chaos drills.
	if err := e19DrillCrash(scheme, table, t); err != nil {
		return nil, fmt.Errorf("bench: e19 crash drill: %w", err)
	}
	if err := e19DrillDiskFull(scheme, table, t); err != nil {
		return nil, fmt.Errorf("bench: e19 disk-full drill: %w", err)
	}
	if err := e19DrillPartition(scheme, table, t); err != nil {
		return nil, fmt.Errorf("bench: e19 partition drill: %w", err)
	}
	return t, nil
}

// e19Meas is one churn configuration's catch-up cost: the records a log
// replay would apply, and what the snapshot bootstrap applied and
// fetched.
type e19Meas struct{ logRecs, snapRecs, snapBytes uint64 }

// e19CatchUp measures one churn configuration: w rounds of re-storing
// the same table, then a follower bootstrapping from scratch.
func e19CatchUp(ct *ph.EncryptedTable, w int) (m e19Meas, err error) {
	dir, err := os.MkdirTemp("", "e19-*")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)
	pst, err := storage.OpenOptions(filepath.Join(dir, "wal.log"), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return m, err
	}
	defer pst.Close()
	for i := 0; i < 2*w; i++ {
		if err := pst.Put("pairs", ct); err != nil {
			return m, err
		}
	}
	_, m.logRecs = pst.LogHead()
	node, err := startNode(pst, false)
	if err != nil {
		return m, err
	}
	defer node.kill()
	dial := func() (*client.Conn, error) { return client.DialWithConfig(node.addr, e18Dial()) }

	snap := replica.New(dial, replica.Options{PollInterval: time.Millisecond})
	err = snap.WaitCaughtUp(20 * time.Second)
	if err == nil {
		err = e19SameRoots(pst, snap.Store())
	}
	st := snap.Status()
	m.snapRecs, m.snapBytes = st.RecordsApplied, st.SnapshotBytes
	snap.Close()
	if err != nil {
		return m, fmt.Errorf("snapshot follower: %w", err)
	}
	if st.Snapshots != 1 {
		return m, fmt.Errorf("snapshot follower installed %d snapshots, want 1", st.Snapshots)
	}
	return m, nil
}

// e19Fixture stands up a durable primary with the dataset uploaded
// through a real client (pinning the trust root), and returns the
// pieces the drills share. Callers own the returned cleanups.
type e19Fixture struct {
	dir   string
	pst   *storage.Store
	node  *e18Node
	root  []byte
	rootN int
	q     relation.Eq
	want  string
}

func e19Setup(scheme ph.Scheme, table *relation.Table, opts storage.Options) (*e19Fixture, error) {
	fx := &e19Fixture{}
	dir, err := os.MkdirTemp("", "e19-*")
	if err != nil {
		return nil, err
	}
	fx.dir = dir
	fx.pst, err = storage.OpenOptions(filepath.Join(dir, "wal.log"), opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fx.node, err = startNode(fx.pst, false)
	if err != nil {
		fx.close()
		return nil, err
	}
	setup, err := client.DialWithConfig(fx.node.addr, e18Dial())
	if err != nil {
		fx.close()
		return nil, err
	}
	defer setup.Close()
	db := client.NewDB(setup, scheme, "pairs")
	if err := db.CreateTable(table); err != nil {
		fx.close()
		return nil, err
	}
	fx.root, fx.rootN = db.Root()

	// Query a value guaranteed present: the first row's code.
	fx.q = relation.Eq{Column: "code", Value: table.Tuple(0)[1]}
	want, err := relation.Select(table, fx.q)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.want = want.Sorted().String()
	return fx, nil
}

func (fx *e19Fixture) close() {
	if fx.node != nil {
		fx.node.kill()
	}
	if fx.pst != nil {
		fx.pst.Close()
	}
	os.RemoveAll(fx.dir)
}

// readCheck runs one verified read with the follower as the preferred
// replica and the primary as fallback. A wrong answer — served from
// anywhere — is the drill-failing event; refusal-and-failover is fine.
func (fx *e19Fixture) readCheck(scheme ph.Scheme, primaryAddr string, follower *e18Node, label string) error {
	conn, err := client.DialWithConfig(primaryAddr, e18Dial())
	if err != nil {
		return fmt.Errorf("%s: dialing primary: %w", label, err)
	}
	defer conn.Close()
	db := client.NewDB(conn, scheme, "pairs")
	db.PinRoot(fx.root, fx.rootN)
	db.AddReplicas(e18Dial(), follower.addr)
	got, err := db.Select(fx.q)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	if got.Sorted().String() != fx.want {
		return fmt.Errorf("%s: accepted-but-wrong read", label)
	}
	return nil
}

// e19WaitMidTransfer polls until the follower is strictly mid-way
// through its snapshot transfer.
func e19WaitMidTransfer(f *replica.Follower, total uint64) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := f.Status()
		if st.Snapshots != 0 {
			return fmt.Errorf("snapshot completed before the fault could land mid-transfer")
		}
		if st.SnapshotBytes > total/4 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transfer never reached the fault point (status %+v)", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// e19SnapshotTotal measures the primary's snapshot size.
func e19SnapshotTotal(st *storage.Store) (uint64, error) {
	var buf bytes.Buffer
	if _, err := st.WriteSnapshot(&buf); err != nil {
		return 0, err
	}
	return uint64(buf.Len()), nil
}

// e19DrillCrash kill-crashes the primary mid-snapshot-transfer and
// recovers it; the follower's transfer must resume and converge to
// bit-identical roots.
func e19DrillCrash(scheme ph.Scheme, table *relation.Table, t *Table) error {
	fx, err := e19Setup(scheme, table, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return err
	}
	defer fx.close()
	total, err := e19SnapshotTotal(fx.pst)
	if err != nil {
		return err
	}

	// The primary's address moves across the restart; the follower's
	// dial chases it. The conn-level delay paces the transfer so the
	// crash lands mid-flight deterministically.
	var mu sync.Mutex
	addr := fx.node.addr
	slow := e18Dial()
	slow.DialFunc = func(a string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", a, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return fault.NewConn(c, fault.ConnPlan{Delay: 2 * time.Millisecond}), nil
	}
	f := replica.New(func() (*client.Conn, error) {
		mu.Lock()
		a := addr
		mu.Unlock()
		return client.DialWithConfig(a, slow)
	}, replica.Options{PollInterval: time.Millisecond, MaxBytes: 1024})
	defer f.Close()
	fnode, err := e19StartReplicaNode(f.Store(), f.Ready)
	if err != nil {
		return err
	}
	defer fnode.kill()

	if err := e19WaitMidTransfer(f, total); err != nil {
		return err
	}
	// Kill-crash and recover: listener down, connections severed, store
	// reopened from disk at a fresh address.
	atKill := f.Status()
	if atKill.Snapshots != 0 || atKill.SnapshotBytes >= total {
		return fmt.Errorf("transfer finished (%d of %d bytes, %d installs) before the crash landed", atKill.SnapshotBytes, total, atKill.Snapshots)
	}
	fx.node.kill()
	if err := fx.pst.Close(); err != nil {
		return err
	}
	pst2, err := storage.Open(filepath.Join(fx.dir, "wal.log"))
	if err != nil {
		return fmt.Errorf("recovering primary: %w", err)
	}
	fx.pst = pst2
	node2, err := startNode(pst2, false)
	if err != nil {
		return err
	}
	fx.node = node2
	mu.Lock()
	addr = node2.addr
	mu.Unlock()

	// A read during the recovery window: the not-ready follower must
	// refuse, so the recovered primary answers correctly.
	if err := fx.readCheck(scheme, node2.addr, fnode, "mid-recovery read"); err != nil {
		return err
	}
	if err := f.WaitCaughtUp(20 * time.Second); err != nil {
		return err
	}
	if err := e19SameRoots(pst2, f.Store()); err != nil {
		return fmt.Errorf("post-recovery roots: %w", err)
	}
	st := f.Status()
	if st.Snapshots != 1 {
		return fmt.Errorf("follower installed %d snapshots, want 1 (the crashed transfer must resume, not restart)", st.Snapshots)
	}
	if err := fx.readCheck(scheme, node2.addr, fnode, "post-recovery read"); err != nil {
		return err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"crash drill passed: primary killed at %d of %d snapshot bytes, recovered, transfer resumed; roots bit-identical, every read correct",
		atKill.SnapshotBytes, total))
	return nil
}

// e19DrillDiskFull fills the primary's disk mid-WAL-append via the
// fault harness: mutations must degrade to refusals (not corruption),
// reads stay correct, and the reopened log replays exactly its durable
// prefix, from which a follower converges to identical roots.
func e19DrillDiskFull(scheme ph.Scheme, table *relation.Table, t *Table) error {
	var ff *fault.File
	var limit int64 = 1 << 20
	fx, err := e19Setup(scheme, table, storage.Options{WrapLog: func(lf storage.LogFile) storage.LogFile {
		ff = fault.NewFile(lf, fault.FilePlan{FailWriteAfterBytes: limit})
		return ff
	}})
	if err != nil {
		return err
	}
	defer fx.close()

	// Churn appends until the disk fills.
	extra := relation.NewTable(table.Schema())
	for i := 0; i < 8; i++ {
		extra.MustInsert(relation.String("Z"), relation.String(fmt.Sprintf("x%03d", i)))
	}
	ect, err := scheme.EncryptTable(extra)
	if err != nil {
		return err
	}
	if err := fx.pst.Put("churn", ect); err != nil {
		return err
	}
	var full error
	for i := 0; i < 100000; i++ {
		if full = fx.pst.Append("churn", ect.Tuples); full != nil {
			break
		}
	}
	if full == nil {
		return fmt.Errorf("never hit the %d-byte disk limit", limit)
	}
	// Degradation contract: refusal, not corruption — and reads still
	// serve the pinned table correctly.
	if err := fx.pst.Put("more", ect); err == nil {
		return fmt.Errorf("mutation accepted on a full disk")
	}
	dummy, err := e19StartReplicaNode(storage.NewMemory(), func() bool { return false })
	if err != nil {
		return err
	}
	defer dummy.kill()
	if err := fx.readCheck(scheme, fx.node.addr, dummy, "degraded-mode read"); err != nil {
		return err
	}

	// Recover: reopen without the fault (space freed) and bootstrap a
	// follower from the replayed durable prefix.
	fx.node.kill()
	// Close flushes, which a full disk is allowed to fail; recovery
	// replays the durable prefix either way.
	fx.pst.Close()
	pst2, err := storage.Open(filepath.Join(fx.dir, "wal.log"))
	if err != nil {
		return fmt.Errorf("recovering primary after disk-full: %w", err)
	}
	fx.pst = pst2
	node2, err := startNode(pst2, false)
	if err != nil {
		return err
	}
	fx.node = node2

	f := replica.New(func() (*client.Conn, error) {
		return client.DialWithConfig(node2.addr, e18Dial())
	}, replica.Options{PollInterval: time.Millisecond})
	defer f.Close()
	if err := f.WaitCaughtUp(20 * time.Second); err != nil {
		return err
	}
	if err := e19SameRoots(pst2, f.Store()); err != nil {
		return fmt.Errorf("post-recovery roots: %w", err)
	}
	fnode, err := e19StartReplicaNode(f.Store(), f.Ready)
	if err != nil {
		return err
	}
	defer fnode.kill()
	if err := fx.readCheck(scheme, node2.addr, fnode, "post-recovery read"); err != nil {
		return err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"disk-full drill passed: ENOSPC at %d log bytes degraded the store to refusing mutations; reads stayed correct, the durable prefix replayed, and follower roots match bit for bit", limit))
	return nil
}

// e19DrillPartition partitions the follower's link mid-snapshot and
// heals it: the transfer must stall, resume from its offset, and end
// in identical roots.
func e19DrillPartition(scheme ph.Scheme, table *relation.Table, t *Table) error {
	fx, err := e19Setup(scheme, table, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return err
	}
	defer fx.close()
	total, err := e19SnapshotTotal(fx.pst)
	if err != nil {
		return err
	}

	var sw fault.Switch
	cfg := e18Dial()
	cfg.DialFunc = func(a string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", a, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return fault.NewConn(c, fault.ConnPlan{Delay: 2 * time.Millisecond, Partition: &sw}), nil
	}
	f := replica.New(func() (*client.Conn, error) {
		return client.DialWithConfig(fx.node.addr, cfg)
	}, replica.Options{PollInterval: time.Millisecond, MaxBytes: 1024})
	defer f.Close()
	fnode, err := e19StartReplicaNode(f.Store(), f.Ready)
	if err != nil {
		return err
	}
	defer fnode.kill()

	if err := e19WaitMidTransfer(f, total); err != nil {
		return err
	}
	sw.Set(true)
	time.Sleep(10 * time.Millisecond) // drain in-flight rounds
	b0 := f.Status().SnapshotBytes
	// Reads during the partition: the unready follower refuses (its own
	// serving link is fine; only its upstream is cut), so the client
	// fails over and stays correct.
	if err := fx.readCheck(scheme, fx.node.addr, fnode, "mid-partition read"); err != nil {
		return err
	}
	if st := f.Status(); st.SnapshotBytes != b0 || st.Snapshots != 0 {
		return fmt.Errorf("transfer progressed under the partition: %d -> %d bytes", b0, st.SnapshotBytes)
	}
	sw.Set(false)

	if err := f.WaitCaughtUp(20 * time.Second); err != nil {
		return err
	}
	if err := e19SameRoots(fx.pst, f.Store()); err != nil {
		return fmt.Errorf("post-heal roots: %w", err)
	}
	st := f.Status()
	if st.Snapshots != 1 || st.Resets != 0 {
		return fmt.Errorf("partition voided the transfer (%d snapshots, %d resets), want resume", st.Snapshots, st.Resets)
	}
	if st.SnapshotBytes != total {
		return fmt.Errorf("follower fetched %d bytes for a %d-byte snapshot: the transfer restarted instead of resuming", st.SnapshotBytes, total)
	}
	if err := fx.readCheck(scheme, fx.node.addr, fnode, "post-heal read"); err != nil {
		return err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"partition drill passed: link cut at %d of %d snapshot bytes and healed; transfer resumed byte-exact, roots bit-identical, every read correct", b0, total))
	return nil
}
