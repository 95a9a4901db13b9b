package bench

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
)

// e18Node is one serving process: a TCP listener in front of a store.
type e18Node struct {
	addr string
	srv  *server.Server
}

func startNode(st *storage.Store, readOnly bool) (*e18Node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.NewWithOptions(st, nil, server.Options{ReadOnly: readOnly})
	go srv.Serve(l)
	return &e18Node{addr: l.Addr().String(), srv: srv}, nil
}

func (n *e18Node) kill() { n.srv.Close() }

// e18Reads is how many verified reads the routing gate issues with both
// followers attached.
const e18Reads = 30

// e18Dial is the client dial policy for the experiment: one attempt,
// short timeout, so a killed node costs a bounded detour instead of a
// retry stall (the DB quarantines it after the first failure anyway).
func e18Dial() client.DialConfig {
	return client.DialConfig{Timeout: 2 * time.Second, Attempts: 1}
}

// RunE18 regenerates experiment E18: WAL-shipping read replicas. A
// durable primary and two followers (replica.Follower tailing the
// primary's log, each behind a read-only server) serve verified reads
// to a client that pins the primary's root. Every gate is a count:
//
//   - routing: with both followers attached, every one of e18Reads
//     verified reads is plaintext-correct and served by a follower
//     (ReplicaReads == e18Reads, PrimaryReads == 0);
//   - kill-a-replica: a follower dies mid-stream; every subsequent read
//     must still succeed (failover to the primary) and the answers must
//     be bit-for-bit the primary's;
//   - Byzantine replica: a node serving a tampered copy of the table;
//     the client's pinned-root verification must reject it, quarantine
//     it, and return the primary's answer — again bit-for-bit.
func RunE18(tuples int, seed int64) (*Table, error) {
	if tuples <= 0 {
		tuples = 2000
	}
	t := &Table{
		ID:     "E18",
		Title:  fmt.Sprintf("WAL-shipping read replicas: verified-read routing and failover (table: %d tuples)", tuples),
		Header: []string{"phase", "reads", "replica reads", "primary reads", "failovers", "replica failures"},
		Notes: []string{
			"every read is verified against the client's pinned root; replicas are untrusted and add capacity, never trust",
			"followers bootstrap from a snapshot of the primary and tail its WAL into in-memory stores",
		},
	}
	addRow := func(phase string, reads int, st client.ReadStats) {
		t.AddRow(phase, fmt.Sprintf("%d", reads), fmt.Sprintf("%d", st.ReplicaReads), fmt.Sprintf("%d", st.PrimaryReads),
			fmt.Sprintf("%d", st.Failovers), fmt.Sprintf("%d", st.ReplicaFailures))
	}

	dir, err := os.MkdirTemp("", "e18-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Primary: durable store on its own TCP listener.
	pst, err := storage.OpenOptions(filepath.Join(dir, "wal.log"), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return nil, err
	}
	defer pst.Close()
	pnode, err := startNode(pst, false)
	if err != nil {
		return nil, err
	}
	defer pnode.kill()

	// Dataset and trust anchor, uploaded through a regular client.
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
	setup, err := client.DialWithConfig(pnode.addr, e18Dial())
	if err != nil {
		return nil, err
	}
	defer setup.Close()
	seedDB := client.NewDB(setup, scheme, "pairs")
	if err := seedDB.CreateTable(table); err != nil {
		return nil, err
	}
	root, rootTuples := seedDB.Root()

	// Followers: tail the primary's WAL, serve read-only.
	var followers []*e18Node
	for i := 0; i < 2; i++ {
		f := replica.New(func() (*client.Conn, error) {
			return client.DialWithConfig(pnode.addr, e18Dial())
		}, replica.Options{PollInterval: 20 * time.Millisecond})
		defer f.Close()
		if err := f.WaitCaughtUp(10 * time.Second); err != nil {
			return nil, err
		}
		fn, err := startNode(f.Store(), true)
		if err != nil {
			return nil, err
		}
		defer fn.kill()
		followers = append(followers, fn)
	}

	q := relation.Eq{Column: "code", Value: relation.String("c007")}
	want, err := relation.Select(table, q)
	if err != nil {
		return nil, err
	}
	wantStr := want.Sorted().String()

	newDB := func(readAddrs ...string) (*client.DB, error) {
		conn, err := client.DialWithConfig(pnode.addr, e18Dial())
		if err != nil {
			return nil, err
		}
		db := client.NewDB(conn, scheme, "pairs")
		db.PinRoot(root, rootTuples)
		if err := db.AddReplicas(e18Dial(), readAddrs...); err != nil {
			return nil, err
		}
		return db, nil
	}

	readOK := func(db *client.DB, label string) error {
		got, err := db.Select(q)
		if err != nil {
			return fmt.Errorf("bench: e18 %s: %w", label, err)
		}
		if got.Sorted().String() != wantStr {
			return fmt.Errorf("bench: e18 %s: answer differs from the primary's", label)
		}
		return nil
	}

	// Routing: with both followers attached, every verified read is a
	// follower's, and every one is the plaintext answer.
	spread, err := newDB(followers[0].addr, followers[1].addr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < e18Reads; i++ {
		if err := readOK(spread, "routed read"); err != nil {
			return nil, err
		}
	}
	st := spread.ReadStats()
	if st.ReplicaReads != e18Reads || st.PrimaryReads != 0 {
		return nil, fmt.Errorf("bench: e18 gate: %d reads with 2 followers attached: %d from replicas, %d from the primary; want all %d from replicas",
			e18Reads, st.ReplicaReads, st.PrimaryReads, e18Reads)
	}
	addRow("primary + 2 followers", e18Reads, st)

	// Drill 1: kill a follower mid-stream. Reads route through the dead
	// node's slot, fail over, and keep answering the primary's truth.
	drill, err := newDB(followers[1].addr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		if err := readOK(drill, "pre-kill read"); err != nil {
			return nil, err
		}
	}
	followers[1].kill()
	for i := 0; i < 3; i++ {
		if err := readOK(drill, "post-kill read"); err != nil {
			return nil, err
		}
	}
	st = drill.ReadStats()
	if st.Failovers == 0 {
		return nil, fmt.Errorf("bench: e18: follower killed but no read failed over (stats %+v)", st)
	}
	addRow("kill-a-replica drill", 6, st)
	t.Notes = append(t.Notes, "failover drill passed: follower killed live, reads failed over to the primary, every answer bit-identical to the primary's")

	// Drill 2: a Byzantine replica serving a tampered table. The pinned
	// root rejects it; the read still succeeds — from the primary.
	ct, err := setup.FetchAll("pairs")
	if err != nil {
		return nil, err
	}
	ct.Tuples[0].ID[0] ^= 0xFF
	evil := storage.NewMemory()
	if err := evil.Put("pairs", ct); err != nil {
		return nil, err
	}
	enode, err := startNode(evil, true)
	if err != nil {
		return nil, err
	}
	defer enode.kill()
	bdb, err := newDB(enode.addr)
	if err != nil {
		return nil, err
	}
	if err := readOK(bdb, "byzantine drill"); err != nil {
		return nil, err
	}
	st = bdb.ReadStats()
	if st.ReplicaFailures == 0 || st.ReplicaReads != 0 {
		return nil, fmt.Errorf("bench: e18: tampered replica was not rejected (stats %+v)", st)
	}
	addRow("Byzantine replica drill", 1, st)
	t.Notes = append(t.Notes, "Byzantine drill passed: a replica serving one flipped byte failed pinned-root verification, was quarantined, and the primary's bit-identical answer was returned")
	return t, nil
}
