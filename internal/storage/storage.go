// Package storage implements Eve's ciphertext store: a concurrency-safe
// in-memory catalogue of encrypted tables with durability through a
// write-ahead log. The server never sees plaintext; everything stored
// here is exactly what the wire protocol delivered.
//
// Durability model: each mutation (store, insert, drop) is framed as a
// checksummed log record (format v1: magic, op, length, CRC32C) and
// appended through a dedicated log writer before it is applied in memory
// and acknowledged. A record's payload is the wire payload of its
// command, so the tuples of a store or insert record are the wire's
// tuple runs: each run's shape said once, then its tuples' bytes back to
// back. That is also how a table lives in memory (ph.Slab): a run of the
// resident slab is a run of the log, and a record is encoded from the
// slab — a store record from the whole of it, an insert record from the
// tail the insert appended.
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
// every later mutation is refused with the same error BEFORE it is
// visible in memory (an append's tail, copied into the slab so its
// record can be encoded from it, is truncated away under the table's
// write lock) — the store degrades to a read-only catalogue rather than
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
// writer serialises record framing under its own internal mutex. A mutation stages its log record while holding the
// lock that orders it — the table lock for Append, the store lock (plus
// the outgoing table's lock) for Put and Drop — and then waits for
// durability with no locks held. Mutations of distinct tables therefore
// proceed in parallel, paying only for the shared group commit, and a
// query never waits behind another table's disk I/O. Because the record
// for every mutation of a given table is framed under that table's
// ordering lock, the log order of same-table records always matches the
// in-memory application order, which is what makes replay reproduce the
// in-memory state exactly (records of different tables commute). Lock
// order is strictly store, then table, then log writer; nothing may
// take an earlier lock while holding a later one.
//
// Versioning and the result cache: every table carries a monotonic
// version drawn from a store-wide clock, bumped on Put, Append and Drop,
// plus its base — the version at which the table object was installed.
// Read hashes each conjunct's token once into cache.Key{base, SHA-256 of
// the token}, the one key of the LRU result cache (internal/cache), the
// scan single-flight (internal/scanshare) and the selectivity sketch.
// Under the table's read lock a whole-table entry answers without
// scanning; a prefix entry (the table has been appended to since) costs
// a delta scan of the tail; anything else is a full scan. A replacement
// has another base, so no read of it reaches an old entry, even one a
// racing read stores late. Caching leaks nothing: positions per trapdoor
// are exactly the access pattern every query already reveals.
//
// One read path: Read evaluates a plan — a conjunction of one or more
// encrypted selects — through internal/query under a single read-lock
// acquisition. Per-conjunct cache state and the entry's selectivity
// sketch (stats.QuerySketch, fed by every scan) order the conjuncts, at
// most one full-width pass runs (the driver's, which for a one-conjunct
// plan is the whole read), and later conjuncts only test surviving
// positions via core.EvaluateSlab. Fresh full-table position sets are written
// back to the cache per conjunct, so a repeated conjunct hits even
// inside a new combination.
//
// One served scheme: the store holds and scans the paper's construction
// (core, swp-ph) alone. Put and the record decoder refuse a table of any
// other scheme, and Read a token of one, so a comparator reaches neither
// memory, the log, a shipped chunk nor a snapshot.
//
// Authenticated index: each table entry owns a version-stamped Merkle
// tree (internal/authindex) over its tuples, built lazily on the first
// Root or verified Read and from then on extended incrementally —
// Append hashes just the new tuples and repairs the tree in O(k + log n)
// under the table's write lock (only if the tree was ever materialised;
// unauthenticated workloads pay nothing). Readers catch the tree up
// under the table's read lock (serialised on a small internal mutex), so
// the tree served always covers exactly the tuples served, and a
// verified Read cuts (result, multiproof, root, count, version) from one
// read-locked snapshot — mutually consistent by construction. Put and
// Drop retire the tree with the entry they retire; Compact leaves tuples
// (and therefore trees) untouched.
//
// Log shipping: the WAL doubles as the replication stream, and its
// record is the package's only record format. ReadLog serves followers
// whole records, as the file holds them, from an (epoch, seq) cursor —
// epoch names the current log file via a fsynced sidecar, rotated by
// Compact so a follower whose cursor predates the rotation is told to
// re-bootstrap rather than silently diverge — and ApplyShipped reads
// them with the log's own reader and applies each through the normal
// Put/Append/Drop, producing bit-identical tuples and therefore the
// primary's Merkle roots. A follower whose cursor no longer resolves
// bootstraps from a snapshot (snapshot.go): the log Compact would
// write, behind a cursor header. A durable follower persists its
// shipping base in a sidecar so it resumes tailing across its own
// restarts. See ship.go, snapshot.go and internal/replica.
package storage

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
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
	"repro/internal/stats"
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
// from PutSlab and decodeRecord: CmdStore, replay, shipping and
// snapshots.
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
	// cache.Key of every read against this entry.
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
	// sketch is the conjunctive planner's per-table selectivity sketch,
	// fed by every scan this entry serves. It has its own internal
	// mutex, so observing under the table's read lock is safe.
	sketch *stats.QuerySketch
}

// newTableEntry creates a catalogued entry for a freshly installed slab
// at base/version v.
func newTableEntry(slab *ph.Slab, v uint64) *tableEntry {
	return &tableEntry{slab: slab, base: v, version: v, sketch: stats.NewQuerySketch()}
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
	cache  *cache.Cache  // immutable after construction; nil disables result caching
	// share deduplicates identical cold full-table scans in flight
	// (layer 14): a cache-miss query waits on an identical scan already
	// running instead of starting its own. Immutable after construction.
	share *scanshare.Sharer

	// epoch identifies the current log file's record sequence space for
	// log shipping (see ship.go): loaded from the sidecar on open, rotated
	// by Compact under the exclusive store lock, 0 for in-memory stores.
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

	// base is a durable follower's persisted shipping base (see
	// ship.go): the primary-side cursor this store's local log was
	// seeded from, used to recompute the resume cursor across restarts.
	// Guarded by mu; baseValid is false when no trustworthy sidecar was
	// found.
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

// NewMemory creates a volatile in-memory store with result caching
// enabled at the default size.
func NewMemory() *Store {
	return &Store{tables: make(map[string]*tableEntry), cache: cache.New(0), share: scanshare.New()}
}

// Open creates a durable store backed by the write-ahead log at path
// with default options (SyncAlways), replaying any existing log. Result
// caching is enabled at the default size.
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
	s := &Store{tables: make(map[string]*tableEntry), path: path, cache: cache.New(0), share: scanshare.New()}
	recs, err := s.replay(path)
	if err != nil {
		return nil, err
	}
	epoch, err := loadEpoch(path)
	if err != nil {
		return nil, err
	}
	s.epoch = epoch
	if b, ok := loadShipBase(path, epoch); ok {
		s.base, s.baseValid = b, true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("storage: opening log %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: stat log %s: %w", path, err)
	}
	s.wrapLog = opts.WrapLog
	var lf LogFile = f
	if s.wrapLog != nil {
		lf = s.wrapLog(f)
	}
	s.wal = newWALWriter(lf, info.Size(), recs, opts)
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

// ShareStats returns the scan sharer's counters.
func (s *Store) ShareStats() scanshare.Stats { return s.share.Stats() }

// CacheStats returns the result cache's counters (zero if caching is
// disabled).
func (s *Store) CacheStats() cache.Stats {
	if s.cache == nil {
		return cache.Stats{}
	}
	return s.cache.Stats()
}

// replay loads the log at path into memory. Replay stops at the first
// record the log reader cannot vouch for (see readWALRecord) and
// truncates the log there, so nothing after a torn record, a corrupt
// length or a flipped byte is ever misapplied. A record that verifies
// but fails to apply is a hard error: its bytes are what was written, so
// it indicates a format this build does not know, not corruption. The
// returned count — how many records survived — seeds the log-shipping
// sequence (a follower's cursor indexes records of the current file).
func (s *Store) replay(path string) (uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: opening log %s for replay: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("storage: stat log %s: %w", path, err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var validOffset int64
	var recs uint64
	var rec []byte
	for {
		var ok bool
		if rec, ok = readWALRecord(br, info.Size()-validOffset, rec[:0]); !ok {
			break
		}
		if err := s.applyRecord(rec[1], rec[walV1HdrLen:]); err != nil {
			return 0, fmt.Errorf("storage: replaying log %s at offset %d: %w", path, validOffset, err)
		}
		validOffset += int64(len(rec))
		recs++
	}
	// Truncate any torn or corrupt tail so the next append starts at a
	// clean boundary.
	if info.Size() > validOffset {
		if err := os.Truncate(path, validOffset); err != nil {
			return 0, fmt.Errorf("storage: truncating torn log tail of %s: %w", path, err)
		}
	}
	return recs, nil
}

// mutation is one decoded log record: the table it names, plus the
// table stored (opStore), as a fresh slab, or the runs appended
// (opInsert), validated and still a view of the record.
type mutation struct {
	name string
	slab *ph.Slab
	runs wire.Runs
}

// decodeRecord decodes one log record payload. Replay, ApplyShipped and
// decodeSnapshot all go through it, so a record means the same mutation
// whether it is read back from the local log, shipped or installed.
func decodeRecord(op byte, payload []byte) (m mutation, err error) {
	switch op {
	case opStore:
		if m.name, m.slab, err = wire.DecodeStoreSlab(payload); err == nil {
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

// applyRecord applies one replayed record to the in-memory state. Replay
// runs before the store is shared, so no table locks are needed.
func (s *Store) applyRecord(op byte, payload []byte) error {
	m, err := decodeRecord(op, payload)
	if err != nil {
		return err
	}
	switch op {
	case opStore:
		s.tables[m.name] = newTableEntry(m.slab, s.clock.Add(1))
	case opInsert:
		e, ok := s.tables[m.name]
		if !ok {
			return fmt.Errorf("storage: insert into unknown table %q", m.name)
		}
		m.runs.AppendTo(e.slab)
		e.version = s.clock.Add(1)
	case opDrop:
		delete(s.tables, m.name)
	}
	return nil
}

// Put stores (or replaces) the encrypted table under name: PutSlab of a
// copy of t in a fresh slab.
func (s *Store) Put(name string, t *ph.EncryptedTable) error {
	return s.PutSlab(name, ph.NewSlab(t))
}

// PutSlab stores (or replaces) the table slab holds under name, taking
// ownership of slab: the server hands over the slab wire.DecodeStoreSlab
// copied a CmdStore frame into. Replacement installs a fresh entry at a
// fresh base and invalidates the old base's cached results; queries
// still running against a replaced table finish on the snapshot they
// started with, and any result they cache afterwards lands under the old
// base, which no read looks up again.
//
// The record is encoded from the slab before any lock is taken; the
// store lock covers only the log staging and the catalogue install, and
// the durability wait holds no locks at all.
func (s *Store) PutSlab(name string, slab *ph.Slab) error {
	if name == "" {
		return fmt.Errorf("storage: empty table name")
	}
	if err := servedScheme(name, slab.SchemeID); err != nil {
		return err
	}
	var payload []byte
	if s.wal != nil {
		payload = wire.EncodeSlab(wire.AppendString(nil, name), slab)
	}
	s.mu.Lock()
	old := s.tables[name]
	if old != nil {
		// Holding the outgoing entry's lock while staging orders this
		// record after every append already logged against it, and
		// marking it stale sends later appends to the new entry.
		old.mu.Lock()
	}
	var seq uint64
	if s.wal != nil {
		var err error
		if seq, err = s.wal.write(opStore, payload); err != nil {
			if old != nil {
				old.mu.Unlock()
			}
			s.mu.Unlock()
			return err
		}
	}
	if old != nil {
		old.stale = true
		old.mu.Unlock()
	}
	v := s.clock.Add(1)
	s.tables[name] = newTableEntry(slab, v)
	if old != nil && s.cache != nil {
		s.cache.InvalidateTable(old.base)
	}
	s.mu.Unlock()
	if s.wal != nil {
		return s.wal.waitDurable(seq)
	}
	return nil
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
// tells it where its leaves went, version stamps the snapshot.
func (s *Store) AppendStamped(name string, tuples []ph.EncryptedTuple) (base int, version uint64, err error) {
	return s.appendTo(name, func(slab *ph.Slab) { slab.AppendTuples(tuples) })
}

// AppendRuns is AppendStamped for the runs of a CmdInsert frame, which
// wire.DecodeInsertRuns validated: their bytes are copied from the
// frame straight into the table's slab.
func (s *Store) AppendRuns(name string, runs wire.Runs) (base int, version uint64, err error) {
	return s.appendTo(name, runs.AppendTo)
}

// appendTo runs add on the named table's slab under its write lock and
// logs what add appended. The insert record is encoded from the slab's
// new tail into a pooled buffer — the bytes wire.EncodeInsert writes for
// the same tuples — and if the log refuses it the tail is truncated away
// before anyone can see it.
//
// If the entry's authenticated index has been materialised, the append
// extends it in place (O(k + log n) hashes under the table's write lock)
// instead of invalidating it; a never-requested index stays unbuilt and
// costs appends nothing.
func (s *Store) appendTo(name string, add func(*ph.Slab)) (base int, version uint64, err error) {
	for {
		s.mu.RLock()
		e, ok := s.tables[name]
		s.mu.RUnlock()
		if !ok {
			return 0, 0, fmt.Errorf("storage: unknown table %q", name)
		}
		e.mu.Lock()
		if e.stale {
			// The entry was replaced or dropped between lookup and lock:
			// retry against the current catalogue state.
			e.mu.Unlock()
			continue
		}
		base = e.slab.Len()
		add(e.slab)
		var seq uint64
		if s.wal != nil {
			// walWriter.write copies the record out of the buffer before
			// it returns.
			payload := wire.AppendSlab(wire.AppendString(wire.GetBuf(), name), e.slab, base, e.slab.Len())
			seq, err = s.wal.write(opInsert, payload)
			wire.PutBuf(payload)
			if err != nil {
				e.slab.Truncate(base)
				e.mu.Unlock()
				return 0, 0, err
			}
		}
		version = s.clock.Add(1)
		e.version = version
		e.extendTreeLocked()
		e.mu.Unlock()
		if s.wal != nil {
			return base, version, s.wal.waitDurable(seq)
		}
		return base, version, nil
	}
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

// sketchDigest is a conjunct's sketch key, 8 bytes of its cache key.
func sketchDigest(cj *query.Conjunct) uint64 {
	return binary.BigEndian.Uint64(cj.Key.Token[:8])
}

// observeScan feeds one scan's outcome into the entry's selectivity
// sketch. The token length buckets the prior — the closest thing to a
// per-column signal the ciphertext carries (PerColumnWidth layouts give
// each column group its own token length).
func (e *tableEntry) observeScan(cj *query.Conjunct, hits, scanned int) {
	e.sketch.Observe(sketchDigest(cj), len(cj.Q.Token), hits, scanned)
}

// planConj gathers the planner inputs for one plan under the caller's
// read lock: per conjunct, its cache key — the only hash of its token
// the read computes — the result-cache state (a hit makes the conjunct
// free; a prefix entry halves its cost) and the sketch's selectivity
// estimate, then orders everything into a Plan. A single select is one
// allocation, its conjunct held in the plan.
func (e *tableEntry) planConj(c *cache.Cache, name string, qs []*ph.EncryptedQuery) (*query.Plan, error) {
	n := e.slab.Len()
	if len(qs) == 1 {
		var cj query.Conjunct
		e.conjunct(c, &cj, 0, qs[0], n)
		return query.Single(name, n, cj), nil
	}
	conjs := make([]query.Conjunct, len(qs))
	for i, q := range qs {
		e.conjunct(c, &conjs[i], i, q, n)
	}
	return query.Build(name, n, conjs)
}

// conjunct fills cj, conjunct i of a plan over n tuples, from q.
func (e *tableEntry) conjunct(c *cache.Cache, cj *query.Conjunct, i int, q *ph.EncryptedQuery, n int) {
	cj.Index, cj.Q = i, q
	cj.Key = cache.Key{Table: e.base, Token: sha256.Sum256(q.Token)}
	if c != nil {
		cj.Entry, cj.Cached = c.Lookup(cj.Key, n)
	}
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
		cj.Est, cj.EstKnown = e.sketch.Estimate(sketchDigest(cj), len(q.Token))
	}
}

// Read evaluates one plan — a conjunction of one or more encrypted
// queries; a single select is the one-conjunct plan — against the named
// table. It is the store's only read path. Everything happens under one
// acquisition of the table's read lock, so reads on distinct tables, and
// any number of reads on one table, run fully in parallel and never
// block the catalogue.
//
// The plan is built from each conjunct's cache state and selectivity
// estimate and run through internal/query: its driver step is a cache
// hit (no tuple touched), a delta (only the tail appended since the
// entry was stored is scanned) or a miss, and later steps narrow the
// survivors. A miss is a full-table scan on this goroutine (core.EvaluateSlab,
// fanned out over whatever the scheduler budget has idle), unless an
// identical scan — same cache key and tuple count — is already in
// flight, in which case this read waits for it and shares its positions
// (internal/scanshare). Every full-table position set the run produced
// is then written back to the result cache, per conjunct and under THIS
// read's lock with the snapshot's tuple count — whoever ran the scan,
// each reader holds its own table read lock across the scan or the wait,
// so appends cannot move the tuple count under it and no writeback can
// be stale — and every evaluation feeds the selectivity sketch
// (narrowed steps record the conditional selectivity the ordering
// actually wants).
//
// flags (wire.ReadFlag*) shapes the answer. With none it is the matching
// tuples. With ReadFlagVerified they travel with one multiproof — cut at
// the tree's cap level (authindex.CapNodes), whose row the client holds —
// root, leaf count and version cut under the same lock acquisition that
// evaluated the plan — mutually consistent by construction, so a
// mutation racing the request can never make an honest answer fail
// verification. With ReadFlagExplain nothing is evaluated: the answer is
// the plan's conjunct order, estimates and predicted serving paths (the
// cache is consulted, which counts in its statistics, but no tuple is
// scanned). The plan itself is returned for callers that report on it.
//
// The answer is a read-only view of the slab (ph.Slab.Answer): each
// tuple's ID and words are sub-slices of its run's bytes, and the word
// headers of the whole answer are cut from one array under the read
// lock. That is safe after the lock drops — the server encodes the
// answer then — for the reason Get's snapshot is: no byte below a run's
// length is ever written again, so bytes a view holds never change. A
// caller that wants to modify an answer must copy it first. A token of
// another scheme is refused before planning: EvaluateSlab takes any token
// as an SWP trapdoor.
func (s *Store) Read(name string, qs []*ph.EncryptedQuery, flags byte) (query.Response, *query.Plan, error) {
	for i, q := range qs {
		if q.SchemeID != core.SchemeID {
			return query.Response{}, nil, fmt.Errorf("storage: conjunct %d is a query of scheme %q: this server evaluates only %s", i, q.SchemeID, core.SchemeID)
		}
	}
	e, err := s.entry(name)
	if err != nil {
		return query.Response{}, nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	plan, err := e.planConj(s.cache, name, qs)
	if err != nil {
		return query.Response{}, nil, err
	}
	if flags&wire.ReadFlagExplain != 0 {
		plan.Annotate()
		return query.Response{Plan: plan.Info()}, plan, nil
	}
	n := e.slab.Len()
	driver := &plan.Conjuncts[0]
	positions, err := plan.Run(n, func(q *ph.EncryptedQuery, from int, candidates []int) ([]int, error) {
		if from > 0 || candidates != nil {
			return evaluateOn(e.slab, q, from, candidates) // a tail delta or a narrowing pass
		}
		return s.share.Scan(driver.Key, n, func() ([]int, error) { return evaluateOn(e.slab, q, 0, nil) })
	})
	if err != nil {
		return query.Response{}, nil, err
	}
	for i := range plan.Conjuncts {
		cj := &plan.Conjuncts[i]
		if cj.FullPositions != nil {
			if s.cache != nil {
				s.cache.Store(cj.Key, cache.Entry{Positions: cj.FullPositions, Scanned: n})
			}
			e.observeScan(cj, len(cj.FullPositions), n)
		} else if cj.Tested > 0 {
			// Narrowed step — plain or over a cached prefix's tail: its
			// hits among the tested positions are the conjunct's
			// selectivity conditioned on the predicates before it.
			e.observeScan(cj, cj.NarrowHits, cj.Tested)
		}
	}
	res := e.slab.Answer(positions)
	if flags&wire.ReadFlagVerified == 0 {
		return query.Response{Result: res}, plan, nil
	}
	tree := e.authTree()
	proof, err := tree.ProveAnswer(positions)
	if err != nil {
		return query.Response{}, nil, err
	}
	return query.Response{Verified: &authindex.VerifiedResult{
		Result:     res,
		Root:       tree.Root(),
		Leaves:     n,
		Version:    e.version,
		Multiproof: proof,
	}}, plan, nil
}

// Query is Read for a single select.
func (s *Store) Query(name string, q *ph.EncryptedQuery) (*ph.Result, error) {
	resp, _, err := s.Read(name, []*ph.EncryptedQuery{q}, 0)
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// QueryVerified is Read for a single verified select.
func (s *Store) QueryVerified(name string, q *ph.EncryptedQuery) (*authindex.VerifiedResult, error) {
	resp, _, err := s.Read(name, []*ph.EncryptedQuery{q}, wire.ReadFlagVerified)
	if err != nil {
		return nil, err
	}
	return resp.Verified, nil
}

// QueryConj is Read for a conjunction, returning the executed plan's
// summary beside the intersection.
func (s *Store) QueryConj(name string, qs []*ph.EncryptedQuery) (*ph.Result, *query.PlanInfo, error) {
	resp, plan, err := s.Read(name, qs, 0)
	if err != nil {
		return nil, nil, err
	}
	return resp.Result, plan.Info(), nil
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

// Drop removes the named table. Like Put, the record is staged while
// holding the store lock and the entry's lock (ordering it after every
// logged append to the entry), and the durability wait is lock-free.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	e, ok := s.tables[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("storage: unknown table %q", name)
	}
	e.mu.Lock()
	var seq uint64
	if s.wal != nil {
		var err error
		if seq, err = s.wal.write(opDrop, wire.AppendString(nil, name)); err != nil {
			e.mu.Unlock()
			s.mu.Unlock()
			return err
		}
	}
	e.stale = true
	e.mu.Unlock()
	s.clock.Add(1)
	delete(s.tables, name)
	if s.cache != nil {
		s.cache.InvalidateTable(e.base)
	}
	s.mu.Unlock()
	if s.wal != nil {
		return s.wal.waitDurable(seq)
	}
	return nil
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
	return s.rotateLog(uint64(len(names)), func(w io.Writer) (int64, error) { return s.writeCatalog(w, names) })
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
// write returning their byte count — as the store's log, under
// Compact's crash discipline; Compact and InstallSnapshot share it. The
// caller holds s.mu exclusively and every table lock (lockCatalog), so
// the log writer has nothing in flight. write fills a temp file, which
// is then fsynced; on any failure before the rename the temp file is
// removed and the old log — still valid — stays in force. The local
// shipping epoch is rotated BEFORE the swap: a follower cursor
// minted against the old file must never resolve into the replacement
// (same sequence number, different record). The sidecar is written and
// fsynced first, so a crash between the two steps leaves a new epoch
// over the old log — followers re-bootstrap needlessly, which is safe;
// the reverse order could pair the old epoch with the new file, which
// silently diverges.
func (s *Store) rotateLog(recs uint64, write func(io.Writer) (int64, error)) error {
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
	size, err := write(tmp)
	if err != nil {
		return abort(fmt.Errorf("storage: writing replacement log: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return abort(fmt.Errorf("storage: syncing replacement log: %w", err))
	}
	newEpoch, err := randomEpoch()
	if err != nil {
		return abort(err)
	}
	if err := writeEpoch(s.path, newEpoch); err != nil {
		return abort(err)
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
	ierr := s.wal.installFile(lf, size, recs)
	if errors.Is(ierr, errLogClosed) {
		return ierr
	}
	// The swap happened: publish the new epoch (we hold s.mu exclusively,
	// which is what serialises this against ReadLog's epoch reads),
	// point the ship cursor cache at the new file's origin, and drop
	// state bound to the old file: the persisted shipping base (its
	// ownEpoch binding just broke, by design) and any cached snapshot.
	s.epoch = newEpoch
	s.shipMu.Lock()
	s.shipEpoch, s.shipSeq, s.shipOff = newEpoch, 0, 0
	s.shipMu.Unlock()
	s.baseValid = false
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
