// Package storage implements Eve's ciphertext store: a concurrency-safe
// in-memory catalogue of encrypted tables with durability through a
// write-ahead log. The server never sees plaintext; everything stored
// here is exactly what the wire protocol delivered.
//
// Durability model: a mutation (store, insert, drop) is its record. It
// arrives as a frame, and Apply takes the frame's payload, decodes it
// once, applies it and hands those same bytes to a dedicated log writer,
// framed as a checksummed log record (format v1: magic, op, length,
// CRC32C), before acknowledging — so the tuples of a store or insert
// record are the wire's tuple runs, each run's shape said once, then its
// tuples' bytes back to back, exactly as they were received. Nothing is
// re-encoded from what is stored; replay and a shipped chunk apply each
// record through the same body, and the tuple API (Put, Append, Drop)
// encodes the payload its command would carry and applies that. A table
// lives in memory the same way (ph.Slab): a run of the resident slab is
// a run of some record.
// The sync policy decides what "acknowledged" promises: under SyncAlways
// (the default) the record is fsynced first, with concurrent writers
// sharing one fsync through group commit; SyncInterval fsyncs in the
// background every interval; SyncNever leaves flushing to the OS. Close
// always syncs, so a clean shutdown is durable under every policy. On
// open the log is replayed: a torn trailing record (crash mid-append)
// and anything after a corrupt record (CRC mismatch, or a record
// boundary that does not start with the magic byte) is truncated away,
// so replay never silently misapplies bytes the CRC disowns.
//
// Degradation under write failure (disk full, I/O error, failed fsync):
// the log writer's first failure is sticky. The failing record is
// truncated back out of the file so the log never ends in bytes that
// were acknowledged to nobody, the error is returned to the caller, and
// every later mutation is refused with the same error BEFORE it touches
// memory (a record is staged in the log before it is applied) — the
// store degrades to a read-only catalogue rather than
// letting memory and log fork. One asymmetry is inherent to group
// commit: the mutation that first hits a failing fsync has already
// applied in memory when the durability wait reports the error, so that
// single write is in-doubt (visible to reads, absent from the log) until
// the store is reopened; reopening replays only what the log's
// checksums vouch for. Recovery from a cleared condition (space freed)
// is by reopening the store.
//
// Locking model: the store-level RWMutex guards only the catalogue map;
// each table carries its own RWMutex guarding its tuple data, and the log
// writer serialises record framing under its own internal mutex. A
// mutation stages its log record while holding the lock that orders it —
// the table lock for an insert, the store lock (plus the outgoing
// table's lock) for a store or drop — and then waits for durability with
// no locks held. Mutations of distinct tables therefore
// proceed in parallel, paying only for the shared group commit, and a
// query never waits behind another table's disk I/O. Because the record
// for every mutation of a given table is framed under that table's
// ordering lock, the log order of same-table records always matches the
// in-memory application order, which is what makes replay reproduce the
// in-memory state exactly (records of different tables commute). Lock
// order is strictly store, then table, then log writer; nothing may
// take an earlier lock while holding a later one.
//
// Versioning and the memo: every table carries a monotonic version
// drawn from a store-wide clock, bumped by every store, insert and drop, plus
// its base — the version at which the table object was installed. Read
// hashes each conjunct's token once into cache.Key{base, SHA-256 of the
// token}, the key of the store's one memo per trapdoor (internal/cache):
// its prefix, its scan in flight and its selectivity. Under the table's
// read lock a whole-table prefix answers without scanning; a shorter
// prefix (the table has been appended to since) costs a delta scan of
// the tail; anything else is a full scan. A replacement has another
// base, so no read of it reaches an old entry, even one a racing read
// stores late. Memoising leaks nothing: positions per trapdoor are
// exactly the access pattern every query already reveals.
//
// One read path: Read evaluates a request's plans — each a conjunction
// of one or more encrypted selects — in order through internal/query
// under a single read-lock acquisition. Per-conjunct memo state — a
// prefix, or the selectivity every scan of the token fed — orders the
// conjuncts, at most one full-width pass runs (the driver's, which for a
// one-conjunct plan is the whole read), and later conjuncts only test
// surviving positions via core.EvaluateSlab. Fresh full-table position sets are written back per
// conjunct, so a repeated conjunct hits even inside a new combination.
//
// One served scheme: the store holds and scans the paper's construction
// (core, swp-ph) alone. The record decoder refuses a table of any other
// scheme, and Read a token of one, so a comparator reaches neither
// memory, the log, a shipped chunk nor a snapshot.
//
// Authenticated index: each table entry owns a version-stamped Merkle
// tree (internal/authindex) over its tuples, built lazily on the first
// Root or verified Read and from then on extended incrementally — an
// insert hashes just the new tuples and repairs the tree in O(k + log n)
// under the table's write lock (only if the tree was ever materialised;
// unauthenticated workloads pay nothing). Readers catch the tree up
// under the table's read lock (serialised on a small internal mutex), so
// the tree served always covers exactly the tuples served, and a
// verified Read cuts (result, multiproof, root, count, version) from one
// read-locked snapshot — mutually consistent by construction. A store or
// drop retires the tree with the entry it retires; Compact leaves tuples
// (and therefore trees) untouched.
//
// Log shipping: the WAL doubles as the replication stream, and its
// record is the package's only record format. ReadLog serves followers
// whole records, as the file holds them, from an (epoch, seq) cursor —
// epoch names the current log file via the file's own header, rotated
// by Compact so a follower whose cursor predates the rotation is told to
// re-bootstrap rather than silently diverge — and ApplyShipped reads
// them with the log's own reader and applies each through the one
// mutation body, producing bit-identical tuples and therefore the
// primary's Merkle roots. A follower whose cursor no longer resolves
// bootstraps from a snapshot (snapshot.go): the log Compact would
// write, behind a cursor header. A durable follower's log header
// carries its shipping base, so it resumes tailing across its own
// restarts. The log is the store's only file. See ship.go, snapshot.go
// and internal/replica.
package storage

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/authindex"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/scanshare"
	"repro/internal/wire"
)

// log record op codes.
const (
	opStore  byte = 0x01
	opInsert byte = 0x02
	opDrop   byte = 0x03
)

// evaluateOn is the store's one scan, a variable only so that a test can
// hold a scan open.
var evaluateOn = core.EvaluateSlab

// servedScheme refuses a table the paper's construction did not encrypt,
// from decodeRecord: CmdStore, Put, replay, shipping and snapshots.
func servedScheme(name, scheme string) error {
	if scheme != core.SchemeID {
		return fmt.Errorf("storage: table %q is of scheme %q: this server stores only %s, the construction Definition 2.1 is proved for",
			name, scheme, core.SchemeID)
	}
	return nil
}

// tableEntry is one catalogued table with its own reader/writer lock.
// Its tuples live in a run slab (ph.Slab): each run says its shape once
// and holds its tuples' bytes back to back, the layout of a tuple run on
// the wire and in the log, so a resident emp tuple is its 49 ciphertext
// bytes and no header. Appends grow the last run or open one under the
// write lock; readers cut views out of it under the read lock, which
// stay valid after it drops because no byte below a run's length is
// ever written again.
type tableEntry struct {
	mu   sync.RWMutex
	slab *ph.Slab
	// tree is the table's authenticated index (Merkle tree over the
	// tuples), built lazily on the first Root or verified Read and
	// extended incrementally on Append. treeN is the tuple count the tree
	// covers; treeMu serialises catch-up between concurrent readers.
	// Invariant: the tree is only ever a prefix view (treeN <=
	// slab.Len()) of the entry it lives in, so whoever brings it to
	// the locked tuple count serves a tree consistent with the tuples
	// served. Destructive mutations never touch it: Put and Drop install
	// or unlink whole entries, so a replaced table's tree dies with its
	// entry.
	treeMu sync.Mutex
	tree   *authindex.Tree
	treeN  int
	// base is the store-clock version at which this table object was
	// installed, so no two entries share it: the table half of the
	// cache.Key of every read against this entry. The memo keeps this
	// table's entries and selectivity prior under it.
	base uint64
	// version is bumped from the store clock on every mutation touching
	// this table. Between base and version the only mutations are appends
	// (destructive ones install a fresh entry), which is what makes cached
	// prefixes delta-scannable.
	version uint64
	// stale marks an entry that has been replaced (Put) or removed
	// (Drop) from the catalogue. An Append that looked the entry up
	// before the replacement re-reads the catalogue instead of mutating
	// — and logging against — a superseded object, which keeps the log
	// order of same-table records identical to their in-memory order.
	stale bool
}

// newTableEntry creates a catalogued entry for a freshly installed slab
// at base/version v.
func newTableEntry(slab *ph.Slab, v uint64) *tableEntry {
	return &tableEntry{slab: slab, base: v, version: v}
}

// authTree returns the entry's authenticated index, built or extended to
// cover exactly the current tuples. Callers must hold e.mu (read or
// write). Concurrent readers serialise the catch-up on treeMu; once the
// tree covers the locked tuple count it is safe to read without treeMu
// for as long as e.mu is held, because every tree mutation happens either
// under e.mu's write lock or under treeMu by a reader catching up to this
// same length (a no-op once reached).
func (e *tableEntry) authTree() *authindex.Tree {
	e.treeMu.Lock()
	defer e.treeMu.Unlock()
	if e.tree == nil {
		n := e.slab.Len()
		e.tree = authindex.BuildLeaves(appendLeafHashes(make([]byte, 0, n*authindex.HashSize), e.slab, 0, n))
		e.treeN = n
		return e.tree
	}
	e.catchUpTree()
	return e.tree
}

// catchUpTree extends a materialised tree over any appended tail. Callers
// hold treeMu and e.mu (read suffices: the slab cannot change).
func (e *tableEntry) catchUpTree() {
	if n := e.slab.Len(); e.treeN < n {
		var stack [8 * authindex.HashSize]byte // a typical tail fits; longer ones spill to the heap
		e.tree.ExtendFlat(appendLeafHashes(stack[:0], e.slab, e.treeN, n))
		e.treeN = n
	}
}

// appendLeafHashes appends the leaf hashes of the slab's tuples at
// positions [lo, hi) to dst: each tuple cut from its run as a view, so
// the preimage is the one authindex.LeafHash takes.
func appendLeafHashes(dst []byte, slab *ph.Slab, lo, hi int) []byte {
	var stack [8][]byte
	for p := lo; p < hi; p++ {
		dst = authindex.AppendLeafHash(dst, slab.Tuple(p, stack[:0]))
	}
	return dst
}

// Store is the server-side catalogue of encrypted tables.
type Store struct {
	mu     sync.RWMutex // guards tables (the map itself) and epoch
	tables map[string]*tableEntry
	wal    *walWriter // immutable after Open; nil for pure in-memory stores
	path   string
	clock  atomic.Uint64 // monotonic version source for all tables
	cache  *cache.Cache  // the memo per trapdoor; immutable after construction

	// epoch identifies the current log file's record sequence space for
	// log shipping (see ship.go): read from the log's header on open,
	// rotated by Compact under the exclusive store lock, 0 for in-memory
	// stores.
	epoch uint64
	// shipMu guards the ReadLog cursor→byte-offset cache, which lets a
	// tailing follower resume at its cursor without rescanning the file.
	shipMu    sync.Mutex
	shipEpoch uint64
	shipSeq   uint64
	shipOff   int64

	// wrapLog is Options.WrapLog, retained so every replacement log
	// handle installed by Compact or InstallSnapshot passes
	// through the same fault seam as the handle opened at OpenOptions.
	wrapLog func(LogFile) LogFile

	// base is the log header's shipping base (see ship.go): the
	// primary-side cursor this store's contents were installed from,
	// used to recompute the resume cursor across restarts. Guarded by
	// mu; baseValid is false when there is none.
	base      shipBase
	baseValid bool

	// snapMu guards the snapshot serving cache (see snapshot.go): one
	// encoded snapshot is retained so chunked ShipSnapshot reads serve a
	// stable byte stream without re-walking the catalogue per chunk.
	// Never acquire mu or a table lock while holding snapMu.
	snapMu    sync.Mutex
	snapBuf   []byte
	snapEpoch uint64
	snapSeq   uint64
}

// NewMemory creates a volatile in-memory store with a memo of the
// default size.
func NewMemory() *Store {
	return &Store{tables: make(map[string]*tableEntry), cache: cache.New(0)}
}

// Open creates a durable store backed by the write-ahead log at path
// with default options (SyncAlways), replaying any existing log, with a
// memo of the default size.
func Open(path string) (*Store, error) {
	return OpenOptions(path, Options{})
}

// OpenOptions creates a durable store backed by the write-ahead log at
// path, replaying any existing log, with the given durability options.
func OpenOptions(path string, opts Options) (*Store, error) {
	switch opts.Sync {
	case SyncAlways, SyncInterval, SyncNever:
	default:
		return nil, fmt.Errorf("storage: invalid sync policy %v", opts.Sync)
	}
	s := &Store{tables: make(map[string]*tableEntry), path: path, cache: cache.New(0)}
	recs, size, err := s.replay(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("storage: opening log %s: %w", path, err)
	}
	s.wrapLog = opts.WrapLog
	var lf LogFile = f
	if s.wrapLog != nil {
		lf = s.wrapLog(f)
	}
	if size == 0 {
		// A fresh log: its header goes through the handle its records
		// will, and is durable before Open returns.
		if s.epoch, err = randomEpoch(); err == nil {
			if _, err = lf.Write(appendLogHeader(nil, s.epoch, shipBase{})); err == nil {
				err = lf.Sync()
			}
		}
		if err != nil {
			_ = lf.Close()
			return nil, fmt.Errorf("storage: writing header of log %s: %w", path, err)
		}
		size = logHdrLen
	}
	s.wal = newWALWriter(lf, size, recs, opts)
	if s.epoch == 0 {
		// The header failed its check: its records replayed, and the
		// rotation gives the log a fresh epoch and no base.
		if err := s.Compact(); err != nil {
			_ = s.wal.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close syncs the log — a clean shutdown is durable even under the
// SyncInterval and SyncNever policies — and closes it. Mutating a
// closed durable store fails.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Sync forces everything acknowledged so far onto stable storage,
// regardless of the sync policy. A no-op for in-memory stores.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.syncNow()
}

// LogStats returns the log writer's activity counters (zero for
// in-memory stores). Records counts accepted mutations; Syncs counts
// fsyncs — under group commit the latter stays well below the former.
func (s *Store) LogStats() LogStats {
	if s.wal == nil {
		return LogStats{}
	}
	return s.wal.stats()
}

// LogErr returns the log's sticky failure (a full disk, a failed fsync,
// a torn record it could not repair), or nil. While it is set the store
// refuses every mutation and still serves reads; Compact, or reopening
// the log, clears it. In-memory stores never have one.
func (s *Store) LogErr() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.failure()
}

// entry looks up a table's entry under the store read lock. The returned
// entry stays valid after the store lock is released: a concurrent Drop or
// Put only unlinks it from the map, and readers still holding it finish
// against the snapshot they found.
func (s *Store) entry(name string) (*tableEntry, error) {
	s.mu.RLock()
	e, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return e, nil
}

// ShareStats returns the memo's scan single-flight counters.
func (s *Store) ShareStats() scanshare.Stats { return s.cache.ShareStats() }

// CacheStats returns the memo's prefix counters.
func (s *Store) CacheStats() cache.Stats { return s.cache.Stats() }

// replay loads the log at path into memory, taking the epoch and ship
// base from its header (see ship.go) — epoch 0 when the header's
// checksum disowns it. Replay stops at the first record the log reader
// cannot vouch for (see readWALRecord) and truncates the log there, so
// nothing after a torn record, a corrupt length or a flipped byte is
// ever misapplied; a log too short for a whole header is truncated to
// nothing. Each record is applied through the one mutation body (apply)
// before the log writer exists, so nothing replayed is logged again. A
// record that verifies but fails to apply is a hard error: its bytes are
// what was written, so it indicates a format this build does not know,
// not corruption — as does a log that starts with a record. It returns how many records survived — the seed of the
// log-shipping sequence (a follower's cursor indexes records of the
// current file) — and the log's size after truncation.
func (s *Store) replay(path string) (recs uint64, size int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("storage: opening log %s for replay: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("storage: stat log %s: %w", path, err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [logHdrLen]byte
	if n, _ := io.ReadFull(br, hdr[:]); n > 0 && hdr[0] == walMagic {
		return 0, 0, fmt.Errorf("storage: log %s starts with a record, not a header: it was written before logs carried their epoch and ship base in a header; rebuild primaries and followers together and start from a new log", path)
	}
	if info.Size() >= logHdrLen {
		size = logHdrLen
		s.epoch, s.base = parseLogHeader(hdr)
		s.baseValid = s.base.primaryEpoch != 0
		for rec := []byte(nil); ; recs++ {
			var ok bool
			if rec, ok = readWALRecord(br, info.Size()-size, rec[:0]); !ok {
				break
			}
			if _, _, err := s.apply(rec[1], rec[walV1HdrLen:]); err != nil {
				return 0, 0, fmt.Errorf("storage: replaying log %s at offset %d: %w", path, size, err)
			}
			size += int64(len(rec))
		}
	}
	// Truncate any torn or corrupt tail so the next append starts at a
	// clean boundary.
	if info.Size() > size {
		if err := os.Truncate(path, size); err != nil {
			return 0, 0, fmt.Errorf("storage: truncating torn log tail of %s: %w", path, err)
		}
	}
	return recs, size, nil
}

// mutation is one decoded log record: the table it names, plus the
// table stored (opStore), as a fresh slab, or the runs appended
// (opInsert), validated and still a view of the record.
type mutation struct {
	name string
	slab *ph.Slab
	runs wire.Runs
}

// decodeRecord decodes one log record payload. Every mutation — Apply,
// the tuple API, replay, ApplyShipped — and decodeSnapshot go through
// it, so a record means the same mutation whether it arrived in a frame,
// is read back from the local log, shipped or installed.
func decodeRecord(op byte, payload []byte) (m mutation, err error) {
	switch op {
	case opStore:
		if m.name, m.slab, err = wire.DecodeStoreSlab(payload); err == nil && m.name == "" {
			err = fmt.Errorf("storage: empty table name")
		} else if err == nil {
			err = servedScheme(m.name, m.slab.SchemeID)
		}
	case opInsert:
		m.name, m.runs, err = wire.DecodeInsertRuns(payload)
	case opDrop:
		m.name, err = wire.DecodeName(payload)
	default:
		err = fmt.Errorf("storage: unknown log op %#x", op)
	}
	return m, err
}

// Apply applies one mutation as its frame carried it: cmd is
// wire.CmdStore, CmdInsert or CmdDrop, and payload that frame's payload,
// which is the mutation's log record. The payload is decoded once, the
// mutation applied, and payload itself logged — no record is encoded
// from what was stored, so the log holds the bytes the wire delivered —
// and Apply returns once it is durable under the sync policy. An insert
// returns where its n tuples landed (base, the table's tuple count
// before it) and the table version it installed. Nothing of payload is
// kept: the caller may reuse it once Apply returns.
//
// A store replaces any table of its name: the new entry has a fresh
// base, so no read of it reaches the old one's cached results, and reads
// still running against the old entry finish on the snapshot they began
// with. An insert extends a materialised authenticated index in place
// (O(k + log n) hashes under the table's write lock); a never-requested
// one stays unbuilt and costs appends nothing.
func (s *Store) Apply(cmd byte, payload []byte) (base, n int, version uint64, err error) {
	var op byte
	switch cmd {
	case wire.CmdStore:
		op = opStore
	case wire.CmdInsert:
		op = opInsert
	case wire.CmdDrop:
		op = opDrop
	default:
		return 0, 0, 0, fmt.Errorf("storage: command %#x is not a mutation", cmd)
	}
	l, err := s.commit(op, payload)
	return l.base, l.n, l.version, err
}

// landed is where an insert's tuples went: the table's tuple count
// before it, the tuples appended, and the version it installed.
type landed struct {
	base, n int
	version uint64
}

// commit is apply followed by the mutation's one durability wait, which
// holds no lock.
func (s *Store) commit(op byte, payload []byte) (landed, error) {
	l, seq, err := s.apply(op, payload)
	if err == nil {
		err = s.durable(seq)
	}
	return l, err
}

// durable waits until the record staged as seq is durable under the
// sync policy; nothing was staged when seq is 0.
func (s *Store) durable(seq uint64) error {
	if s.wal == nil || seq == 0 {
		return nil
	}
	return s.wal.waitDurable(seq)
}

// apply is the one body through which anything changes a table: Apply,
// the tuple API, replay and ApplyShipped. It decodes the record, takes
// the lock that orders it (see the locking model), stages payload as the
// log record and only then applies it, so a record the log refuses never
// reaches memory. A store with no log writer — in memory, or replaying
// its log in Open — logs nothing. It returns the staged sequence number
// (0 if none) for the caller's durability wait.
func (s *Store) apply(op byte, payload []byte) (l landed, seq uint64, err error) {
	m, err := decodeRecord(op, payload)
	if err != nil {
		return l, 0, err
	}
	if op == opInsert {
		var e *tableEntry
		if e, err = s.writable(m.name); err != nil {
			return l, 0, err
		}
		defer e.mu.Unlock()
		if seq, err = s.stage(op, payload); err != nil {
			return l, 0, err
		}
		l = landed{base: e.slab.Len(), n: m.runs.Len(), version: s.clock.Add(1)}
		m.runs.AppendTo(e.slab)
		e.version = l.version
		e.extendTreeLocked()
		return l, seq, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.tables[m.name]
	if old == nil && op == opDrop {
		return l, 0, fmt.Errorf("storage: unknown table %q", m.name)
	}
	if old != nil {
		// Holding the outgoing entry's lock while staging orders this
		// record after every insert logged against it; marking it stale
		// sends later inserts back to the catalogue.
		old.mu.Lock()
		defer old.mu.Unlock()
	}
	if seq, err = s.stage(op, payload); err != nil {
		return l, 0, err
	}
	if v := s.clock.Add(1); op == opStore {
		s.tables[m.name] = newTableEntry(m.slab, v)
	} else {
		delete(s.tables, m.name)
	}
	if old != nil {
		old.stale = true
		s.cache.InvalidateTable(old.base)
	}
	return l, seq, nil
}

// writable returns the named table's current entry, write-locked. An
// entry replaced or dropped between lookup and lock is stale: it looks
// again rather than mutate, and log against, a superseded object.
func (s *Store) writable(name string) (*tableEntry, error) {
	for {
		e, err := s.entry(name)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		if !e.stale {
			return e, nil
		}
		e.mu.Unlock()
	}
}

// stage hands one record to the log writer, returning its sequence
// number; a store with no log writer logs nothing.
func (s *Store) stage(op byte, payload []byte) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	return s.wal.write(op, payload)
}

// Put stores (or replaces) the encrypted table under name: Apply of the
// CmdStore payload that carries it.
func (s *Store) Put(name string, t *ph.EncryptedTable) error {
	_, err := s.commit(opStore, wire.EncodeTable(wire.AppendString(nil, name), t))
	return err
}

// Append adds encrypted tuples to an existing table. The tuples must
// carry the same scheme as the stored table (enforced by the caller
// protocol: they're opaque here). Only the table's own write lock is
// held across the log staging and the tuple mutation, so appends to
// distinct tables proceed in parallel — under SyncAlways they share the
// group-commit fsync, which no lock is held across.
func (s *Store) Append(name string, tuples []ph.EncryptedTuple) error {
	_, _, err := s.AppendStamped(name, tuples)
	return err
}

// AppendStamped is Append returning the write's placement: the tuple
// index the batch landed at (the table's tuple count before the append)
// and the table version the append installed. A client maintaining the
// table's authenticated root incrementally needs exactly this pair: base
// tells it where its leaves went, version stamps the snapshot. The
// CmdInsert payload is encoded into a pooled buffer, which nothing keeps
// once the record is applied.
func (s *Store) AppendStamped(name string, tuples []ph.EncryptedTuple) (base int, version uint64, err error) {
	payload := wire.EncodeInsert(wire.GetBuf(), name, tuples)
	l, err := s.commit(opInsert, payload)
	wire.PutBuf(payload)
	return l.base, l.version, err
}

// extendTreeLocked brings a materialised authenticated index up to date
// with a just-appended tail. Must be called with e.mu write-locked; a nil
// tree (never requested) is left unbuilt.
func (e *tableEntry) extendTreeLocked() {
	e.treeMu.Lock()
	defer e.treeMu.Unlock()
	if e.tree != nil {
		e.catchUpTree()
	}
}

// Get returns a deep copy of the named table. Only the slab's run
// headers are snapshotted under the table's read lock; the copy runs
// outside it, so exporting a large table does not stall writers for the
// whole copy. This is safe because no byte below a run's length is ever
// written again: an append grows the last run past the snapshotted
// length (or reallocates it), and Put installs a fresh entry.
func (s *Store) Get(name string) (*ph.EncryptedTable, error) {
	snap, err := s.snapshot(name)
	if err != nil {
		return nil, err
	}
	return snap.Table(), nil
}

// AppendTable appends the named table's encoding, as wire.EncodeTable
// writes it, to dst: the answer to CmdFetchAll, encoded straight from a
// snapshot of the slab as Get copies it.
func (s *Store) AppendTable(dst []byte, name string) ([]byte, error) {
	snap, err := s.snapshot(name)
	if err != nil {
		return dst, err
	}
	return wire.EncodeSlab(dst, snap), nil
}

// snapshot returns the named table's slab as of now, for reading
// without a lock.
func (s *Store) snapshot(name string) (*ph.Slab, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.slab.Snapshot(), nil
}

// planConj gathers the planner inputs for one plan under the caller's
// read lock: per conjunct, its memo key — the only hash of its token the
// read computes — its prefix (a hit makes the conjunct free; a shorter
// prefix halves its cost) or else the memo's selectivity estimate, then
// orders everything into p. A single select allocates nothing here, its
// conjunct held in the plan.
func (e *tableEntry) planConj(p *query.Plan, c *cache.Cache, name string, qs []*ph.EncryptedQuery) error {
	n := e.slab.Len()
	if len(qs) == 1 {
		e.conjunct(c, p.InitSingle(name, n), 0, qs[0], n)
		return nil
	}
	conjs := make([]query.Conjunct, len(qs))
	for i, q := range qs {
		e.conjunct(c, &conjs[i], i, q, n)
	}
	return p.Build(name, n, conjs)
}

// conjunct fills cj, conjunct i of a plan over n tuples, from q.
func (e *tableEntry) conjunct(c *cache.Cache, cj *query.Conjunct, i int, q *ph.EncryptedQuery, n int) {
	cj.Index, cj.Q = i, q
	cj.Key = cache.Key{Table: e.base, Token: sha256.Sum256(q.Token)}
	cj.Entry, cj.Cached = c.Lookup(cj.Key, n)
	switch cj.Cached {
	case cache.Hit:
		cj.EstKnown = true
		if n > 0 {
			cj.Est = float64(len(cj.Positions)) / float64(n)
		}
	case cache.Delta:
		if cj.Scanned > 0 {
			cj.EstKnown = true
			cj.Est = float64(len(cj.Positions)) / float64(cj.Scanned)
		}
	default:
		// The token length buckets the prior — the closest thing to a
		// per-column signal the ciphertext carries (PerColumnWidth
		// layouts give each column group its own token length).
		cj.Est, cj.EstKnown = c.Estimate(cj.Key, len(q.Token))
	}
}

// Read answers a read request against the named table: one Response per
// plan, in request order, where a plan is a conjunction of one or more
// encrypted queries (a single select is the one-conjunct plan, a batch
// several plans). It is the store's only read path. The whole request
// runs under one acquisition of the table's read lock, its plans one
// after another, so every answer is cut from one state of the table: an
// append, or a record a follower applies, lands before the request or
// after it. Reads on distinct tables, and any number on one table, run
// fully in parallel and never block the catalogue; a writer to the
// table waits for the whole request, at most 65,535 plans (its u16
// count). A token of another scheme, in any plan, is refused before
// anything else — EvaluateSlab takes any token as an SWP trapdoor — and
// a plan that fails fails the request.
//
// Each plan is built from its conjuncts' memo entries — Lookup for a
// prefix, Estimate on a miss — and run through internal/query: its
// driver step is a hit, a delta (a scan of the tail appended since the
// prefix was stored) or a miss, and later steps narrow the survivors. A
// miss is a full-table scan on this goroutine (core.EvaluateSlab, fanned
// out over whatever the scheduler budget has idle), unless another read
// has an identical scan — same key and tuple count — in flight; then
// this read waits for it and shares its positions (the memo's Scan).
// Each evaluated conjunct is then one Store, written under THIS read's
// lock with the snapshot's tuple count — each reader holds its own read
// lock across the scan or the wait, so no writeback can be stale — and
// it runs before the next plan's Lookup, so a plan repeated later in a
// batch is a hit.
//
// flags (wire.ReadFlag*) shapes the answers. With none each is the
// matching tuples. With ReadFlagVerified they travel with one multiproof
// — cut at the tree's cap level (authindex.CapNodes), whose row the
// client holds — and the root, leaf count and version of the locked
// snapshot, the same in every answer: a mutation racing the request can
// never make an honest answer fail verification. With ReadFlagExplain
// each answer is its plan's conjunct order, estimates and predicted
// serving paths, and no tuple is scanned.
//
// An answer is a read-only view of the slab (ph.Slab.Answer), safe after
// the lock drops — the server encodes the answers then — for the reason
// Get's snapshot is: no byte below a run's length is ever written again.
// Its positions are shared the same way, the memo's prefix on a hit or
// adopted by the memo after a scan, so a caller that wants to modify an
// answer must copy it first. A one-plan request's Response, plan, Result
// and VerifiedResult share one allocation, and the root is the tree's
// published one, not a copy.
//
// The tokens may be views of the request frame they arrived in
// (query.DecodeRequest), which the connection overwrites with its next
// request once this one is answered. So a token is read here — hashed
// into its memo key, and scanned by a matcher that goes back to its pool
// when the scan ends — and kept nowhere that outlives the read: a scan
// another read attaches to runs inside its leader's read.
func (s *Store) Read(name string, flags byte, plans [][]*ph.EncryptedQuery) ([]query.Response, error) {
	resps, _, err := s.readPlans(name, flags, plans)
	return resps, err
}

// readPlans is Read, also returning what each plan answered into, for
// QueryConj's plan summary.
func (s *Store) readPlans(name string, flags byte, plans [][]*ph.EncryptedQuery) ([]query.Response, []read, error) {
	for i, qs := range plans {
		for j, q := range qs {
			if q.SchemeID != core.SchemeID {
				return nil, nil, fmt.Errorf("storage: plan %d, conjunct %d is a query of scheme %q: this server evaluates only %s", i, j, q.SchemeID, core.SchemeID)
			}
		}
	}
	e, err := s.entry(name)
	if err != nil {
		return nil, nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.slab.Len()
	var tree *authindex.Tree
	if flags&wire.ReadFlagVerified != 0 {
		tree = e.authTree()
	}
	resps, rds := newReads(len(plans))
	for i, qs := range plans {
		rd := &rds[i]
		plan := &rd.plan
		if err := e.planConj(plan, s.cache, name, qs); err != nil {
			return nil, nil, err
		}
		if flags&wire.ReadFlagExplain != 0 {
			plan.Annotate()
			resps[i].Plan = plan.Info()
			continue
		}
		driver := &plan.Conjuncts[0]
		positions, err := plan.Run(n, func(q *ph.EncryptedQuery, from int, candidates []int) ([]int, error) {
			if from > 0 || candidates != nil {
				return evaluateOn(e.slab, q, from, candidates) // a tail delta or a narrowing pass
			}
			return s.cache.Scan(driver.Key, n, func() ([]int, error) { return evaluateOn(e.slab, q, 0, nil) })
		})
		if err != nil {
			return nil, nil, err
		}
		for j := range plan.Conjuncts {
			// A narrowed step — plain or over a prefix's tail — has no full
			// set: its hits among the tested positions are the conjunct's
			// selectivity conditioned on the predicates before it. A hit or
			// a skipped step tested nothing, and the memo ignores it.
			cj := &plan.Conjuncts[j]
			hits, tested := cj.NarrowHits, cj.Tested
			if cj.FullPositions != nil {
				hits, tested = len(cj.FullPositions), n
			}
			s.cache.Store(cj.Key, cj.FullPositions, n, len(cj.Q.Token), hits, tested)
		}
		e.slab.AnswerInto(&rd.res, positions)
		if tree == nil {
			resps[i].Result = &rd.res
			continue
		}
		proof, err := tree.ProveAnswer(positions)
		if err != nil {
			return nil, nil, err
		}
		rd.vr = authindex.VerifiedResult{
			Result:     &rd.res,
			Root:       tree.Root(),
			Leaves:     n,
			Version:    e.version,
			Multiproof: proof,
		}
		resps[i].Verified = &rd.vr
	}
	return resps, rds, nil
}

// read is what one plan of a Read answers into: its plan, its answer's
// Result and, for a verified read, the VerifiedResult around it.
type read struct {
	plan query.Plan
	res  ph.Result
	vr   authindex.VerifiedResult
}

// newReads allocates a request's responses and plan reads: one object
// for a one-plan request, nearly every request, and two for a batch.
func newReads(plans int) ([]query.Response, []read) {
	if plans == 1 {
		one := new(struct {
			resp [1]query.Response
			rd   [1]read
		})
		return one.resp[:], one.rd[:]
	}
	return make([]query.Response, plans), make([]read, plans)
}

// Query is Read for a single select.
func (s *Store) Query(name string, q *ph.EncryptedQuery) (*ph.Result, error) {
	resps, err := s.Read(name, 0, [][]*ph.EncryptedQuery{{q}})
	if err != nil {
		return nil, err
	}
	return resps[0].Result, nil
}

// QueryVerified is Read for a single verified select.
func (s *Store) QueryVerified(name string, q *ph.EncryptedQuery) (*authindex.VerifiedResult, error) {
	resps, err := s.Read(name, wire.ReadFlagVerified, [][]*ph.EncryptedQuery{{q}})
	if err != nil {
		return nil, err
	}
	return resps[0].Verified, nil
}

// QueryConj is Read for a conjunction, returning the executed plan's
// summary beside the intersection.
func (s *Store) QueryConj(name string, qs []*ph.EncryptedQuery) (*ph.Result, *query.PlanInfo, error) {
	resps, rds, err := s.readPlans(name, 0, [][]*ph.EncryptedQuery{qs})
	if err != nil {
		return nil, nil, err
	}
	return resps[0].Result, rds[0].plan.Info(), nil
}

// Root returns the named table's authenticated-index root, tuple count
// and version, all from one read-locked snapshot. The tree is built on
// first use and extended incrementally afterwards, so this is O(1)
// hashing on a quiescent table and O(tail) after appends.
func (s *Store) Root(name string) (root []byte, tuples int, version uint64, err error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, 0, 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.authTree().Root(), e.slab.Len(), e.version, nil
}

// Drop removes the named table: Apply of the CmdDrop payload naming it.
func (s *Store) Drop(name string) error {
	_, err := s.commit(opDrop, wire.AppendString(nil, name))
	return err
}

// Compact rewrites the log so it holds exactly one store record per live
// table, discarding superseded stores, appended-tuple records and dropped
// tables. It is a no-op for in-memory stores. The new log is exactly a
// snapshot's body (writeCatalog), streamed a record at a time into
// rotateLog's temp file — so the extra memory is one table's encoding —
// and the store keeps a usable log on EVERY failure path: a crash
// mid-compaction leaves either the old or the new log intact.
//
// Compact holds the store lock and every table's read lock for the
// duration, so mutations pause but queries proceed. Quiescing writers
// this way also guarantees the log writer has nothing in flight when the
// file is swapped. Compaction does not bump table versions or bases: the
// tuples are untouched, and a cache key names the table by its base, so
// cached results keep hitting.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	names, unlock := s.lockCatalog(false)
	defer unlock()
	//phlint:ignore lockio log rotation is stop-the-world by design: every table is quiesced and the swap must be atomic with the catalogue
	return s.rotateLog(shipBase{}, uint64(len(names)), func(w io.Writer) (int64, error) { return s.writeCatalog(w, names) })
}

// lockCatalog takes every catalogued table's lock in name order — the
// write lock when write is set, else the read lock — and returns the
// names in that order with the matching unlock. The caller holds s.mu,
// so the set is stable; appenders past their catalogue lookup hold or
// await a table write lock, so once these are held no log write is in
// flight and none can start until unlock.
func (s *Store) lockCatalog(write bool) (names []string, unlock func()) {
	names = slices.Sorted(maps.Keys(s.tables))
	lock, release := (*sync.RWMutex).RLock, (*sync.RWMutex).RUnlock
	if write {
		lock, release = (*sync.RWMutex).Lock, (*sync.RWMutex).Unlock
	}
	entries := make([]*tableEntry, len(names))
	for i, name := range names {
		entries[i] = s.tables[name]
		lock(&entries[i].mu)
	}
	return names, func() {
		for _, e := range entries {
			release(&e.mu)
		}
	}
}

// writeCatalog writes one opStore record per named table, in the order
// given, to w, returning the bytes written: the log Compact writes and
// the body a snapshot seals behind its cursor, so the two are the same
// bytes. A table past the frame cap cannot be one record — replay would
// reject it as corruption and drop the table — so it is refused instead.
// The caller holds the tables' locks (lockCatalog).
func (s *Store) writeCatalog(w io.Writer, names []string) (size int64, err error) {
	var payload, rec []byte
	for _, name := range names {
		payload = wire.EncodeSlab(wire.AppendString(payload[:0], name), s.tables[name].slab)
		if len(payload) > wire.MaxFrameSize {
			return size, fmt.Errorf("storage: table %q encodes to %d bytes, above the %d-byte record cap", name, len(payload), wire.MaxFrameSize)
		}
		rec = appendWALRecord(rec[:0], opStore, payload)
		n, err := w.Write(rec)
		if size += int64(n); err != nil {
			return size, err
		}
	}
	return size, nil
}

// rotateLog swaps in the log that write produces — recs whole records,
// write returning their byte count — behind a header with a fresh epoch
// and the ship base given, as the store's log, under Compact's crash
// discipline; Compact and InstallSnapshot share it. The caller holds
// s.mu exclusively and every table lock (lockCatalog), so the log writer
// has nothing in flight. The header and records fill a temp file, which
// is then fsynced; on any failure before the rename the temp file is
// removed and the old log — still valid — stays in force. The rename
// swaps epoch, base and records in one step, so a follower cursor
// minted against the old file never resolves into the replacement
// (same sequence number, different record).
func (s *Store) rotateLog(base shipBase, recs uint64, write func(io.Writer) (int64, error)) error {
	epoch, err := randomEpoch()
	if err != nil {
		return err
	}
	tmpPath := s.path + ".rotate"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("storage: creating replacement log: %w", err)
	}
	abort := func(e error) error {
		_ = tmp.Close()
		os.Remove(tmpPath)
		return e
	}
	var size int64
	if _, err = tmp.Write(appendLogHeader(nil, epoch, base)); err == nil {
		size, err = write(tmp)
	}
	if err != nil {
		return abort(fmt.Errorf("storage: writing replacement log: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return abort(fmt.Errorf("storage: syncing replacement log: %w", err))
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return abort(fmt.Errorf("storage: swapping replacement log: %w", err))
	}
	// The already-open handle follows the inode across the rename, so
	// the store never holds a closed or dangling log, whatever failed
	// above. installFile releases any group-commit waiters (their
	// records are superseded by the replacement, fsynced file), clears
	// any sticky write error, and restarts the shipping sequence at the
	// replacement's record count.
	var lf LogFile = tmp
	if s.wrapLog != nil {
		lf = s.wrapLog(tmp)
	}
	ierr := s.wal.installFile(lf, logHdrLen+size, recs)
	if errors.Is(ierr, errLogClosed) {
		return ierr
	}
	// The swap happened: publish the new epoch and base (we hold s.mu
	// exclusively, which is what serialises this against ReadLog's epoch
	// reads), point the ship cursor cache at the new file's first
	// record, and drop any cached snapshot of the old file.
	s.epoch, s.base, s.baseValid = epoch, base, base.primaryEpoch != 0
	s.shipMu.Lock()
	s.shipEpoch, s.shipSeq, s.shipOff = epoch, 0, logHdrLen
	s.shipMu.Unlock()
	s.snapMu.Lock()
	s.snapBuf = nil
	s.snapMu.Unlock()
	return ierr
}

// LogSize returns the byte size of the persistence log, or 0 for in-memory
// stores. No lock is needed: the path is immutable and the size is a
// point-in-time observation either way.
func (s *Store) LogSize() (int64, error) {
	if s.wal == nil {
		return 0, nil
	}
	info, err := os.Stat(s.path)
	if err != nil {
		return 0, fmt.Errorf("storage: stat log: %w", err)
	}
	return info.Size(), nil
}

// List returns the directory of stored tables, sorted by name.
func (s *Store) List() []wire.TableInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]wire.TableInfo, 0, len(s.tables))
	for name, e := range s.tables {
		e.mu.RLock()
		infos = append(infos, wire.TableInfo{Name: name, SchemeID: e.slab.SchemeID, Tuples: e.slab.Len()})
		e.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}
