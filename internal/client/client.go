// Package client implements Alex: the trusted client library. The low-level
// Conn speaks the wire protocol; the high-level DB wraps a database privacy
// homomorphism (ph.Scheme) so that applications work entirely in plaintext
// terms — plaintext tables in, plaintext results out — while nothing but
// ciphertext ever crosses the connection.
//
// Every read is the same message. A select is a plan of one conjunct, a
// conjunction (`WHERE a = x AND b = y`) a plan of several, a SelectMany
// a list of plans; DB encrypts one token per conjunct and sends them all
// as a single request (Conn.Read), and the server's selectivity-ordered
// planner (internal/query) intersects the scheme-opaque position sets
// where the data lives, returning only the tuples in each plan's
// intersection — with inclusion proofs from the same snapshot when a
// root is pinned. Pushdown changes where the intersection happens, not
// what the server learns: per-conjunct access patterns are on the wire
// either way.
//
// The transport is allowed to fail: DialWithConfig retries dials with
// jittered backoff, connections take per-round-trip I/O deadlines, and
// a DB can spread its single-round reads over untrusted read replicas
// (AddReplicas) with round-robin routing, quarantine and failover to
// the primary — replica answers are verified against the pinned root
// exactly like the primary's, so replication never loosens the trust
// model. See net.go.
//
// The trust anchor is one vector of pinned Merkle roots, an entry per
// node the table lives on: a single server is its one-node case, a
// sharded table (cluster.go) has one entry per shard. Pinning, frontier
// rebuild, insert write-back and verification are each written once
// over that vector.
package client

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlmini"
	"repro/internal/wire"
)

// Conn is a low-level protocol connection. It is not safe for concurrent
// use; wrap it in your own mutex or pool connections.
type Conn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// rbuf and wbuf are the connection's read and encode buffers: every
	// response is read into rbuf and every command's payload appended to
	// wbuf, for the Conn's whole life (see wire.KeepBuf). Reuse is sound
	// because the decoders copy what they keep — one copy per message,
	// never an alias — so nothing a command returns points into either
	// buffer.
	rbuf, wbuf []byte
	// ioTimeout, when positive, bounds every round trip (request write +
	// response read) so a wedged server cannot pin the caller forever.
	// Set it via DialConfig.IOTimeout or SetIOTimeout.
	ioTimeout time.Duration
}

// Dial connects to a server address.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	return NewConn(c), nil
}

// NewConn wraps an established connection (e.g. one side of net.Pipe in
// tests).
func NewConn(c net.Conn) *Conn {
	return &Conn{conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// roundTrip sends a command frame and reads the response into the
// connection's read buffer, converting RespError into a Go error. The
// response payload is valid until the next round trip.
func (c *Conn) roundTrip(f wire.Frame) (wire.Frame, error) {
	if c.ioTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.ioTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := wire.WriteFrame(c.w, f); err != nil {
		return wire.Frame{}, err
	}
	resp, buf, err := wire.ReadFrameReuse(c.r, c.rbuf)
	c.rbuf = wire.KeepBuf(buf)
	if err != nil {
		return wire.Frame{}, err
	}
	if resp.Type == wire.RespError {
		r := wire.NewBuffer(resp.Payload)
		msg, merr := r.String()
		if merr != nil {
			msg = "malformed error response"
		}
		return wire.Frame{}, fmt.Errorf("client: server error: %s", msg)
	}
	return resp, nil
}

// RoundTrip sends one command frame and returns the response frame,
// with the connection's I/O deadline applied and RespError converted to
// a Go error. The response payload is read into the connection's
// reused buffer, so it is valid until the next call on the Conn: decode
// it — the decoders copy what they keep — before making another. It
// exists for protocol extensions that live outside this package
// (internal/shard's coordinator framing) so they can speak new commands
// over the managed connection without duplicating its transport
// discipline.
func (c *Conn) RoundTrip(f wire.Frame) (wire.Frame, error) { return c.roundTrip(f) }

// send is roundTrip for a command whose payload was appended to the
// connection's encode buffer (c.wbuf[:0]); the buffer, grown or not, is
// kept for the next command.
func (c *Conn) send(typ byte, payload []byte) (wire.Frame, error) {
	c.wbuf = wire.KeepBuf(payload)
	return c.roundTrip(wire.Frame{Type: typ, Payload: payload})
}

// Store uploads an encrypted table under the given name.
func (c *Conn) Store(name string, t *ph.EncryptedTable) error {
	payload := wire.AppendString(c.wbuf[:0], name)
	resp, err := c.send(wire.CmdStore, wire.EncodeTable(payload, t))
	if err != nil {
		return err
	}
	if resp.Type != wire.RespOK {
		return fmt.Errorf("client: unexpected response %#x to store", resp.Type)
	}
	return nil
}

// InsertAck is the server's placement acknowledgement for an insert:
// where the batch landed and the table version it installed.
type InsertAck struct {
	// Base is the table's tuple count before the append — the index the
	// batch's first tuple landed at.
	Base int
	// Count is the number of tuples appended.
	Count int
	// Version is the store version the append installed.
	Version uint64
}

// Insert appends encrypted tuples to a stored table via CmdInsert and
// returns the server's placement ack, from which a verifying client
// advances its pinned authenticated root incrementally (the leaves are
// the client's own tuples; the ack says where they went).
func (c *Conn) Insert(name string, tuples []ph.EncryptedTuple) (InsertAck, error) {
	resp, err := c.send(wire.CmdInsert, wire.EncodeInsert(c.wbuf[:0], name, tuples))
	if err != nil {
		return InsertAck{}, err
	}
	if resp.Type != wire.RespInserted {
		return InsertAck{}, fmt.Errorf("client: unexpected response %#x to insert", resp.Type)
	}
	r := wire.NewBuffer(resp.Payload)
	base, err := r.U32()
	if err != nil {
		return InsertAck{}, fmt.Errorf("client: insert ack base: %w", err)
	}
	count, err := r.U32()
	if err != nil {
		return InsertAck{}, fmt.Errorf("client: insert ack count: %w", err)
	}
	version, err := r.U64()
	if err != nil {
		return InsertAck{}, fmt.Errorf("client: insert ack version: %w", err)
	}
	return InsertAck{Base: int(base), Count: int(count), Version: version}, nil
}

// Read sends the one read request: every plan — a conjunction of one or
// more encrypted queries; a single select is a one-conjunct plan, a
// batch is several plans — is evaluated server-side against one table in
// a single round trip, and answered in order. flags (wire.ReadFlag*)
// selects the answers' shape: matching tuples; with ReadFlagVerified the
// tuples with one multiproof, root, leaf count and version cut from
// the snapshot that evaluated the plan (the proof always verifies against the
// returned root; trusting that root is the caller's decision — DB
// compares it against the pinned one); with ReadFlagExplain the plan
// without executing it. Read returns only answers of the shape asked
// for, one per plan.
func (c *Conn) Read(name string, flags byte, plans [][]*ph.EncryptedQuery) ([]query.Response, error) {
	payload, err := query.EncodeRequest(c.wbuf[:0], name, flags, plans)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(wire.CmdQuery, payload)
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespResult {
		return nil, fmt.Errorf("client: unexpected response %#x to read", resp.Type)
	}
	got, resps, err := query.DecodeResponses(resp.Payload)
	if err != nil {
		return nil, err
	}
	if got != flags || len(resps) != len(plans) {
		return nil, fmt.Errorf("client: read of %d plans with flags %#x answered with %d answers, flags %#x", len(plans), flags, len(resps), got)
	}
	return resps, nil
}

// FetchAll downloads a complete encrypted table.
func (c *Conn) FetchAll(name string) (*ph.EncryptedTable, error) {
	resp, err := c.send(wire.CmdFetchAll, wire.AppendString(c.wbuf[:0], name))
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespTable {
		return nil, fmt.Errorf("client: unexpected response %#x to fetch", resp.Type)
	}
	return wire.DecodeTable(wire.NewBuffer(resp.Payload))
}

// Drop removes a stored table.
func (c *Conn) Drop(name string) error {
	resp, err := c.send(wire.CmdDrop, wire.AppendString(c.wbuf[:0], name))
	if err != nil {
		return err
	}
	if resp.Type != wire.RespOK {
		return fmt.Errorf("client: unexpected response %#x to drop", resp.Type)
	}
	return nil
}

// List enumerates stored tables.
func (c *Conn) List() ([]wire.TableInfo, error) {
	resp, err := c.roundTrip(wire.Frame{Type: wire.CmdList})
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespList {
		return nil, fmt.Errorf("client: unexpected response %#x to list", resp.Type)
	}
	return wire.DecodeList(wire.NewBuffer(resp.Payload))
}

// IsRemote reports whether the error is an answer the server gave
// (RespError) rather than a transport failure: the connection is
// healthy, and redialing would change nothing.
func IsRemote(err error) bool {
	return err != nil && strings.Contains(err.Error(), "server error:")
}

// DB is the high-level secure-outsourcing client: a scheme instance (keys
// stay here) bound to a connection and a remote table name.
type DB struct {
	conn   *Conn
	scheme ph.Scheme
	table  string

	// pool routes single-round reads: round-robin over registered read
	// replicas with quarantine backoff, failover to the primary
	// (net.go). A replica whose answer fails the pinned-root check is
	// quarantined like any other failure — the trust anchor never
	// loosens.
	pool *ReadPool

	// cluster, when set, replaces the single connection with a sharded
	// serving tier (internal/shard): tuples hash-partition over N
	// backends and reads scatter to every shard. conn and pool are nil
	// in this mode. See cluster.go.
	cluster Cluster

	// pins is the trust anchor: one pinned root per node the table lives
	// on — one for a single server, one per shard on a cluster (the
	// root-of-roots vector); nil disables verification. Only the
	// node-access helpers (nodes, split, store, insert, read, fetch) tell
	// a single server from a cluster.
	pins []pin
}

// pin is one entry of the pinned root vector: a node's
// authenticated-index root and leaf count, and the Merkle cap behind
// them — the node tree's O(log n) frontier and its cap row, the level of
// at most authindex.CapNodes nodes that served multiproofs stop at. A
// verified answer is checked against the cap row; the client's own
// inserts advance the root and the row from their local leaf hashes — no
// re-download. The cap is nil after PinRoot / PinShardRoots (only the
// 32-byte anchor was persisted); the first verified read or insert then
// rebuilds it from one fetch *verified against the pinned root*
// (ensureFrontiers).
//
// cache holds the leaves answers have verified under this pin, so a
// repeated answer is checked by its leaf hashes without a fold
// (authindex.LeafCache). It is sound because writeBack is the one place
// a pin moves in place: it derives the new root from the old by the
// client's own appends, which change no existing leaf. Every other pin
// — CreateTable, PinRoot, PinShardRoots, RepinRoot, the ensureFrontiers
// rebuild — is made by newPin with an empty cache, and each shard's pin
// has its own.
type pin struct {
	root   []byte
	tuples int
	cap    *authindex.Cap
	cache  *authindex.LeafCache
}

// newPin pins a root with an empty leaf cache.
func newPin(root []byte, tuples int, c *authindex.Cap) pin {
	return pin{root: root, tuples: tuples, cap: c, cache: authindex.NewLeafCache()}
}

// NewDB binds a scheme to a connection and remote table name.
func NewDB(conn *Conn, scheme ph.Scheme, table string) *DB {
	return &DB{conn: conn, scheme: scheme, table: table, pool: NewReadPool(conn)}
}

// Scheme returns the underlying privacy homomorphism.
func (db *DB) Scheme() ph.Scheme { return db.scheme }

// pinned reports whether verification is enabled.
func (db *DB) pinned() bool { return len(db.pins) > 0 }

// Root returns the pinned authenticated-index root and tuple count of a
// single-server DB — the one entry of its vector — or nil if none is
// pinned (a sharded DB pins one root per shard: see ShardRoots).
// Applications persist this across restarts — it is the only trust
// anchor needed to verify future answers: the cap row the answers are
// checked against is rebuilt from it (see PinRoot), never persisted.
func (db *DB) Root() (root []byte, tuples int) {
	if len(db.pins) != 1 {
		return nil, 0
	}
	return bytes.Clone(db.pins[0].root), db.pins[0].tuples
}

// PinRoot installs a previously persisted root (e.g. after a client
// restart) as a single-server DB's vector; a sharded DB reinstalls its
// vector with PinShardRoots. Passing a nil root disables verification.
// Only the 32-byte anchor is installed: the Merkle cap behind it — the
// frontier and the cap row, up to authindex.CapNodes × 32 bytes — is
// rebuilt lazily from one full fetch, verified against this root, by the
// first verified read or insert.
func (db *DB) PinRoot(root []byte, tuples int) {
	db.pins = nil
	if root != nil {
		db.pins = []pin{newPin(bytes.Clone(root), tuples, nil)}
	}
}

// pinsOf pins the root of every node's table, keeping each cap.
func pinsOf(parts []*ph.EncryptedTable) []pin {
	pins := make([]pin, len(parts))
	for i, part := range parts {
		c := authindex.CapOf(part)
		pins[i] = newPin(c.Root(), c.Count(), c)
	}
	return pins
}

// node names pin i in an error: the shard on a cluster, nothing on a
// single server, whose vector has one entry.
func (db *DB) node(i int) string {
	if len(db.pins) < 2 {
		return ""
	}
	return fmt.Sprintf("shard %d: ", i)
}

// CreateTable encrypts and uploads the plaintext table, pinning the
// authenticated-index root of every node's share of the ciphertext and
// keeping the caps, which answers are checked against and later inserts
// advance incrementally.
// The roots are hashed while the upload is in flight; they are pinned only
// once the store has succeeded.
func (db *DB) CreateTable(t *relation.Table) error {
	ct, err := db.scheme.EncryptTable(t)
	if err != nil {
		return err
	}
	pins := make(chan []pin, 1)
	go func() { pins <- pinsOf(db.split(ct)) }()
	if err := db.store(ct); err != nil {
		<-pins
		return err
	}
	db.pins = <-pins
	return nil
}

// nodes is the number of nodes the table lives on: the length of a full
// pinned vector.
func (db *DB) nodes() int {
	if db.cluster == nil {
		return 1
	}
	return db.cluster.NumShards()
}

// store uploads the encrypted table — partitioned over the shards on a
// cluster.
func (db *DB) store(ct *ph.EncryptedTable) error {
	if db.cluster == nil {
		return db.conn.Store(db.table, ct)
	}
	return db.cluster.Store(db.table, ct)
}

// split is how a table's tuples lie on the nodes: the whole table on a
// single server, the cluster's deterministic partition otherwise.
func (db *DB) split(ct *ph.EncryptedTable) []*ph.EncryptedTable {
	if db.cluster == nil {
		return []*ph.EncryptedTable{ct}
	}
	parts := db.cluster.Split(ct.Tuples)
	out := make([]*ph.EncryptedTable, len(parts))
	for i, part := range parts {
		out[i] = &ph.EncryptedTable{SchemeID: ct.SchemeID, Meta: ct.Meta, Tuples: part}
	}
	return out
}

// encryptTuples builds a single-use table from the plaintext tuples and
// encrypts it under the DB's scheme. The table adopts the caller's
// tuples without a copy: it is read once, by EncryptTable, which keeps
// no plaintext.
func (db *DB) encryptTuples(tuples []relation.Tuple) (*ph.EncryptedTable, error) {
	t := relation.NewTable(db.scheme.Schema())
	t.Grow(len(tuples))
	for _, tp := range tuples {
		if err := t.Adopt(tp); err != nil {
			return nil, err
		}
	}
	return db.scheme.EncryptTable(t)
}

// RepinRoot re-pins the authenticated-index root vector (and rebuilds
// the caps) from a full fetch of the server's current table — every
// shard's partition on a sharded DB. This is the explicit recovery path
// — it *trusts* the fetched ciphertext exactly as CreateTable trusts the
// upload — for when the client knowingly lost sync with the table
// (another writer appended, a partial batch failure, a deliberate
// server-side reload). Routine inserts never call it: they advance the
// roots incrementally from their own leaf hashes.
func (db *DB) RepinRoot() error {
	parts, err := db.fetch()
	if err != nil {
		return err
	}
	db.pins = pinsOf(parts)
	return nil
}

// ensureFrontiers makes the cap behind every pinned root available,
// rebuilding them from one full fetch when only the anchors were
// persisted (PinRoot / PinShardRoots after a restart). Unlike RepinRoot,
// the rebuild is *verified*: every node's fetched table must hash back
// to its pinned root, so a tampering server cannot use the rebuild to
// swap the anchor from under the client.
func (db *DB) ensureFrontiers() error {
	if !slices.ContainsFunc(db.pins, func(p pin) bool { return p.cap == nil }) {
		return nil
	}
	parts, err := db.fetch()
	if err != nil {
		return err
	}
	if len(parts) != len(db.pins) {
		return fmt.Errorf("client: fetched %d partitions, pinned vector covers %d", len(parts), len(db.pins))
	}
	fresh := pinsOf(parts)
	for i, p := range fresh {
		if !bytes.Equal(p.root, db.pins[i].root) || p.tuples != db.pins[i].tuples {
			return fmt.Errorf("client: %sserver table does not match the pinned root (%d tuples fetched, %d pinned) — verification failed; RepinRoot only if the mismatch is expected", db.node(i), p.tuples, db.pins[i].tuples)
		}
	}
	db.pins = fresh
	return nil
}

// placement is one acknowledged part of an insert: the tuples sent to a
// node, in the order sent, and that node's placement ack.
type placement struct {
	node   int
	tuples []ph.EncryptedTuple
	ack    InsertAck
}

// writeBack folds an insert's placements into the pinned vector. A node
// appends each batch in the order sent, so the leaves are known locally;
// an ack only has to confirm *where* they landed. Every placement is
// validated before any pin moves: its ack must count exactly the tuples
// sent (an untouched shard's is zero-valued), and per node the bases, in
// landing order, must tile the cap from its leaf count. Anything
// else — a foreign writer, an unacked chunk landed between acked ones,
// an ack claiming tuples never sent — leaves the caller's explicit
// RepinRoot as the only sound continuation: re-pinning silently would
// let a misbehaving server swap the trust anchor under a call that then
// reports success.
func (db *DB) writeBack(placed []placement) error {
	slices.SortFunc(placed, func(a, b placement) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.ack.Base, b.ack.Base))
	})
	next := make([]int, len(db.pins))
	for i, p := range db.pins {
		next[i] = p.cap.Count()
	}
	for _, p := range placed {
		switch {
		case p.node >= len(next):
			return fmt.Errorf("client: insert placed on node %d, pinned vector covers %d — call RepinRoot to resync", p.node, len(next))
		case p.ack.Count != len(p.tuples):
			return fmt.Errorf("client: %sinsert of %d tuples acked as %d — call RepinRoot to resync", db.node(p.node), len(p.tuples), p.ack.Count)
		case len(p.tuples) > 0 && p.ack.Base != next[p.node]:
			return fmt.Errorf("client: %sinsert landed at tuple %d where the pinned root expects %d — concurrent external writes; call RepinRoot to resync", db.node(p.node), p.ack.Base, next[p.node])
		}
		next[p.node] += len(p.tuples)
	}
	for _, p := range placed {
		if len(p.tuples) == 0 {
			continue
		}
		pn := &db.pins[p.node] // in place: the leaf cache stays valid
		for _, tp := range p.tuples {
			pn.cap.AppendTuple(tp)
		}
		pn.root, pn.tuples = pn.cap.Root(), pn.cap.Count()
	}
	return nil
}

// Insert encrypts and appends plaintext tuples. With a pinned root, the
// root advances incrementally from the placement ack and the local leaf
// hashes — O(k log n) hashing and zero extra round trips, against the
// old full-table re-download per insert. On a sharded DB every touched
// shard's root advances from its own ack.
func (db *DB) Insert(tuples ...relation.Tuple) error {
	return db.InsertBatch(nil, 0, 0, tuples...)
}

// InsertBatch encrypts the tuples once and appends them to the remote
// table in chunks of chunk tuples, fanned out over workers parallel
// connections opened with dial. The concurrent CmdInsert frames land in
// the server's group-commit write path, so the whole batch shares
// fsyncs instead of paying one per chunk; every chunk is durably
// acknowledged when InsertBatch returns (under the server's sync
// policy). Chunks from different workers interleave, so the server-side
// tuple order within the batch is unspecified — exact selects don't
// care, and the pinned root (if any) advances from the per-chunk
// placement acks: each ack says where its chunk landed, so sorting the
// acks by base reconstructs the server-side leaf order from purely local
// hashes. When that reconstruction is impossible — a worker failed (its
// chunk may or may not have landed) or a foreign writer interleaved —
// the pin is left untouched and the returned error says to call
// RepinRoot (see writeBack).
//
// workers <= 0 defaults to 4; chunk <= 0 defaults to 256. A nil dial
// sends the batch as one insert over the DB's own connection, and a
// sharded DB ignores dial: its insert already fans out.
func (db *DB) InsertBatch(dial func() (*Conn, error), workers, chunk int, tuples ...relation.Tuple) error {
	ct, err := db.encryptTuples(tuples)
	if err != nil {
		return err
	}
	if db.pinned() {
		if err := db.ensureFrontiers(); err != nil {
			return err
		}
	}
	placed, err := db.insert(ct.Tuples, dial, workers, chunk)
	if !db.pinned() || len(placed) == 0 {
		return err
	}
	if werr := db.writeBack(placed); werr != nil {
		if err == nil {
			return werr
		}
		return fmt.Errorf("%w; additionally: %v", err, werr)
	}
	return err
}

// insert is the write transport: it appends tuples on the nodes they
// belong to and reports what landed where — one placement per shard on a
// cluster, one per acked chunk on a single server.
func (db *DB) insert(tuples []ph.EncryptedTuple, dial func() (*Conn, error), workers, chunk int) ([]placement, error) {
	switch {
	case db.cluster != nil:
		// A sharded insert already fans out: the coordinator scatters
		// the partitioned batch to every shard's group-commit write path.
		acks, err := db.cluster.Insert(db.table, tuples)
		if err != nil {
			return nil, err
		}
		parts := db.cluster.Split(tuples)
		if len(acks) != len(parts) {
			return nil, fmt.Errorf("client: insert acked by %d shards over %d parts — call RepinRoot to resync", len(acks), len(parts))
		}
		placed := make([]placement, len(parts))
		for i, part := range parts {
			placed[i] = placement{node: i, tuples: part, ack: acks[i]}
		}
		return placed, nil
	case dial != nil:
		return db.insertChunks(tuples, dial, workers, chunk)
	}
	ack, err := db.conn.Insert(db.table, tuples)
	if err != nil {
		return nil, err
	}
	return []placement{{tuples: tuples, ack: ack}}, nil
}

// insertChunks is InsertBatch's fan-out to a single server: one
// placement per acked chunk, returned beside the first worker error
// (an unacked chunk may or may not have landed). The chunks are queued
// up front, so a worker that fails leaves the rest to the others.
func (db *DB) insertChunks(tuples []ph.EncryptedTuple, dial func() (*Conn, error), workers, chunk int) ([]placement, error) {
	if workers <= 0 {
		workers = 4
	}
	if chunk <= 0 {
		chunk = 256
	}
	var chunks [][]ph.EncryptedTuple
	for off := 0; off < len(tuples); off += chunk {
		end := min(off+chunk, len(tuples))
		chunks = append(chunks, tuples[off:end])
	}
	workers = min(workers, len(chunks))
	work := make(chan int, len(chunks))
	for i := range chunks {
		work <- i
	}
	close(work)
	errs := make([]error, workers)
	placed := make([]placement, len(chunks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := dial()
			if err != nil {
				errs[w] = fmt.Errorf("client: batch insert worker %d: %w", w, err)
				return
			}
			defer conn.Close()
			for i := range work {
				ack, err := conn.Insert(db.table, chunks[i])
				if err != nil {
					errs[w] = fmt.Errorf("client: batch insert worker %d: %w", w, err)
					return
				}
				placed[i] = placement{tuples: chunks[i], ack: ack}
			}
		}(w)
	}
	wg.Wait()
	// A chunk is never empty, so an unacked one is the zero placement.
	acked := slices.DeleteFunc(placed, func(p placement) bool { return p.tuples == nil })
	return acked, cmp.Or(errs...)
}

// Select runs one exact select end to end: encrypt the query, evaluate it
// at the server, decrypt, filter false positives. If a root is pinned,
// the answer is verified against it exactly as VerifiedQuery describes.
// With read replicas configured, the query is served from a replica when
// one answers, failing over to the primary otherwise.
func (db *DB) Select(q relation.Eq) (*relation.Table, error) {
	out, err := db.selectPlans([][]relation.Eq{{q}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// VerifiedQuery is Select for callers that must not run unverified: it
// refuses without a pinned root. The server answers with (result,
// multiproof, root, leaf count, version) cut from a single table snapshot,
// in the same round trip. The returned tuples are verified against the
// *pinned* root — one fold up to the pin's cap row per answer — before
// decryption;
// any mismatch — wrong root, wrong count, repeated or misplaced tuple,
// a sibling too few or too many, failed hash chain — refuses the
// answer. Because the proof travels with the root it belongs to, a mutation
// racing the query can never make an honest answer fail; what a mismatch
// means is that the *table* no longer matches the client's pin —
// tampering, or a foreign writer the client must acknowledge via
// RepinRoot.
func (db *DB) VerifiedQuery(q relation.Eq) (*relation.Table, error) {
	if !db.pinned() {
		return nil, fmt.Errorf("client: VerifiedQuery without a pinned root (CreateTable or PinRoot first)")
	}
	return db.Select(q)
}

// SelectMany runs several exact selects and returns the decrypted,
// filtered result per query (order preserved). Against a single server
// it is one round trip — one read request carrying one plan per select —
// pinned or not, with every answer verified against the pin when there
// is one. On a sharded DB every select scatters to all shards.
func (db *DB) SelectMany(qs []relation.Eq) ([]*relation.Table, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	plans := make([][]relation.Eq, len(qs))
	for i := range qs {
		plans[i] = qs[i : i+1]
	}
	return db.selectPlans(plans)
}

// SelectConj runs a conjunctive exact select through the server-side
// planner: one round trip, and only the tuples in the intersection come
// back. With a pinned root every returned tuple travels with an
// inclusion proof cut from the same snapshot as the result, checked
// against the pinned root before decryption exactly like VerifiedQuery.
// As everywhere in the authenticated extension, the proofs authenticate
// *inclusion* of what was returned, not completeness of the
// intersection: a malicious server may still withhold matches (for
// conjunctions as for single selects; see authindex's scope note).
// Decryption filters checksum false positives by re-evaluating the full
// conjunction on the plaintext, so the answer is exactly the plaintext
// selection (Definition 1.1).
func (db *DB) SelectConj(eqs []relation.Eq) (*relation.Table, error) {
	if len(eqs) == 0 {
		return nil, fmt.Errorf("client: empty conjunction")
	}
	out, err := db.selectPlans([][]relation.Eq{eqs})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// selectPlans answers each plan — a conjunction of one or more exact
// selects — with its plaintext selection: one read, verified when a root
// is pinned, then per plan one decryption of every node's matches, node
// 0's first, and the false-positive filter against every conjunct
// (DecryptResult re-evaluates the first, relation.Select the rest).
func (db *DB) selectPlans(plans [][]relation.Eq) ([]*relation.Table, error) {
	var flags byte
	if db.pinned() {
		flags = wire.ReadFlagVerified
		if err := db.ensureFrontiers(); err != nil {
			return nil, err
		}
	}
	nodes, err := db.read(flags, plans)
	if err != nil {
		return nil, err
	}
	out := make([]*relation.Table, len(plans))
	for j, eqs := range plans {
		t, err := db.scheme.DecryptResult(eqs[0], matches(nodes, j))
		if err != nil {
			return nil, err
		}
		if len(eqs) > 1 {
			rest := make([]relation.Pred, len(eqs)-1)
			for i, eq := range eqs[1:] {
				rest[i] = eq
			}
			if t, err = relation.Select(t, relation.And{Preds: rest}); err != nil {
				return nil, err
			}
		}
		out[j] = t
	}
	return out, nil
}

// matches is plan j's matches on every node as one result: a single
// server's as they came, a cluster's concatenated in node order. The
// concatenation copies tuple headers, not their bytes, and carries no
// positions: each node numbers its own table, and decryption reads the
// tuples only.
func matches(nodes [][]query.Response, j int) *ph.Result {
	if len(nodes) == 1 {
		return nodes[0][j].Matches()
	}
	n := 0
	for _, resps := range nodes {
		n += len(resps[j].Matches().Tuples)
	}
	all := make([]ph.EncryptedTuple, 0, n)
	for _, resps := range nodes {
		all = append(all, resps[j].Matches().Tuples...)
	}
	return &ph.Result{Tuples: all}
}

// read is the one read path behind every select and Explain: encrypt one
// token per conjunct, send all plans as one request, and hold every
// answer to the pin. It returns the answers as [node][plan] — a single
// server is one node, a cluster one per shard (see readSharded). The
// whole read — round trip AND pinned-root verification — runs inside
// withRead, so a stale or Byzantine replica fails like a dead one:
// quarantined, and the read retried elsewhere.
func (db *DB) read(flags byte, plans [][]relation.Eq) ([][]query.Response, error) {
	total := 0
	for _, eqs := range plans {
		total += len(eqs)
	}
	tokens, flat := make([][]*ph.EncryptedQuery, len(plans)), make([]*ph.EncryptedQuery, total)
	for i, eqs := range plans {
		tokens[i], flat = flat[:len(eqs):len(eqs)], flat[len(eqs):]
		for j, eq := range eqs {
			q, err := db.scheme.EncryptQuery(eq)
			if err != nil {
				return nil, err
			}
			tokens[i][j] = q
		}
	}
	if db.cluster != nil {
		return db.readSharded(flags, tokens)
	}
	var resps []query.Response
	if err := db.withRead(func(c *Conn) error {
		rs, err := c.Read(db.table, flags, tokens)
		if err != nil {
			return err
		}
		if flags == wire.ReadFlagVerified {
			for _, r := range rs {
				if err := db.check(0, r.Verified); err != nil {
					return err
				}
			}
		}
		resps = rs
		return nil
	}); err != nil {
		return nil, err
	}
	return [][]query.Response{resps}, nil
}

// check is the one verification site: it holds a verified answer from
// node i to pin i (checkVerifiedAgainst). A single server's reads call it
// inside withRead; on a cluster it is the VerifyCheck the scatter runs
// inside every shard's routing, and readSharded calls it again only for
// a sub-answer the scatter did not pass through it (see VerifyCheck).
func (db *DB) check(node int, vr *authindex.VerifiedResult) error {
	if node < 0 || node >= len(db.pins) {
		return fmt.Errorf("client: verified answer from node %d, pinned vector covers %d", node, len(db.pins))
	}
	if vr == nil {
		return fmt.Errorf("client: %sverified read answered without proofs", db.node(node))
	}
	if err := checkVerifiedAgainst(db.pins[node], vr); err != nil {
		return fmt.Errorf("%s%w", db.node(node), err)
	}
	return nil
}

// fetch downloads the table as it lies on the nodes: one table per node.
func (db *DB) fetch() ([]*ph.EncryptedTable, error) {
	if db.cluster != nil {
		return db.cluster.Fetch(db.table)
	}
	ct, err := db.conn.FetchAll(db.table)
	if err != nil {
		return nil, err
	}
	return []*ph.EncryptedTable{ct}, nil
}

// SelectAll downloads and decrypts the whole table (every shard's
// partition, concatenated in shard order, on a sharded DB) with one
// decryption.
func (db *DB) SelectAll() (*relation.Table, error) {
	parts, err := db.fetch()
	if err != nil {
		return nil, err
	}
	all := *parts[0]
	if len(parts) > 1 {
		n := 0
		for _, part := range parts {
			n += len(part.Tuples)
		}
		all.Tuples = make([]ph.EncryptedTuple, 0, n)
		for i, part := range parts {
			if part.SchemeID != all.SchemeID {
				return nil, fmt.Errorf("client: shard %d's partition is of scheme %q, shard 0's of %q", i, part.SchemeID, all.SchemeID)
			}
			all.Tuples = append(all.Tuples, part.Tuples...)
		}
	}
	return db.scheme.DecryptTable(&all)
}

// Query executes a mini-SQL statement. A single equality runs as one
// homomorphic select through Select, a conjunction through SelectConj —
// the server's planner intersects the per-conjunct position sets and
// returns only the matching tuples. Both are verified against the
// pinned root when one is set, so Query never silently downgrades a
// verified client to an unverified path (see SelectConj for what conjunctive
// verification does and does not promise). An absent WHERE clause is a
// full download; projections apply after decryption.
func (db *DB) Query(sql string) (*relation.Table, error) {
	q, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	eqs, err := db.bindWhere(q)
	if err != nil {
		return nil, err
	}
	var out *relation.Table
	switch len(eqs) {
	case 0:
		out, err = db.SelectAll()
	case 1:
		out, err = db.Select(eqs[0])
	default:
		out, err = db.SelectConj(eqs)
	}
	if err != nil {
		return nil, err
	}
	if q.Projection != nil {
		return relation.Project(out, q.Projection...)
	}
	return out, nil
}

// bindWhere checks the statement addresses this DB's table and binds its
// WHERE conjuncts against the schema.
func (db *DB) bindWhere(q *sqlmini.Query) ([]relation.Eq, error) {
	if q.Table != db.scheme.Schema().Name && q.Table != db.table {
		return nil, fmt.Errorf("client: query addresses table %q, this client serves %q (schema %q)",
			q.Table, db.table, db.scheme.Schema().Name)
	}
	eqs := make([]relation.Eq, len(q.Where))
	for i, cond := range q.Where {
		eq, err := cond.Bind(db.scheme.Schema())
		if err != nil {
			return nil, err
		}
		eqs[i] = eq
	}
	return eqs, nil
}

// checkVerifiedAgainst verifies a verified answer against a pin: root
// and leaf count must match the pin, and the returned tuples, at their
// strictly ascending positions, must fold with the answer's multiproof
// into the pin's cap row — one fold per answer, skipped when the pin's
// cache already holds every returned leaf.
// DB.check holds every node's answer to that node's entry of the pinned
// vector this way (the root-of-roots argument: trusting the vector is
// trusting every shard's tree, so one mutated tuple on one shard fails
// its entry and with it the whole read).
func checkVerifiedAgainst(p pin, vr *authindex.VerifiedResult) error {
	if !bytes.Equal(vr.Root, p.root) || vr.Leaves != p.tuples {
		return fmt.Errorf("client: verification failed: server root does not match the pinned root (server %d tuples, pinned %d) — tampering or unacknowledged external writes", vr.Leaves, p.tuples)
	}
	if p.cap == nil {
		return fmt.Errorf("client: verification failed: the pin has no cap row yet")
	}
	if err := p.cache.VerifyAnswer(p.cap.Row(), p.tuples, vr.Result.Positions, vr.Result.Tuples, vr.Multiproof); err != nil {
		return fmt.Errorf("client: verification failed: %w", err)
	}
	return nil
}

// Explain returns the server's plan for a statement without executing
// it: conjunct evaluation order, estimated selectivities (from the
// server's per-table sketch and result cache) and each conjunct's
// predicted serving path, rendered against the statement's plaintext
// conditions. Single-equality and full-download statements are described
// locally — there is nothing to plan.
func (db *DB) Explain(sql string) (string, error) {
	q, err := sqlmini.Parse(sql)
	if err != nil {
		return "", err
	}
	eqs, err := db.bindWhere(q)
	if err != nil {
		return "", err
	}
	switch len(eqs) {
	case 0:
		return fmt.Sprintf("plan for %s: full table download (no WHERE clause)\n", db.table), nil
	case 1:
		path := "single select"
		if db.pinned() {
			path = "verified single select (proofs cut from the answering snapshot)"
		}
		if db.cluster != nil {
			path += fmt.Sprintf(", scattered to %d shards", db.cluster.NumShards())
		}
		return fmt.Sprintf("plan for %s: %s on %s\n", db.table, path, eqs[0]), nil
	}
	nodes, err := db.read(wire.ReadFlagExplain, [][]relation.Eq{eqs})
	if err != nil {
		return "", err
	}
	info := nodes[0][0].Plan
	labels := make([]string, len(eqs))
	for i, eq := range eqs {
		labels[i] = eq.String()
	}
	return info.Render(db.table, labels), nil
}
