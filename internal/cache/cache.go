// Package cache is the server's one memo per trapdoor: everything it
// remembers about a search token on a table, in one byte-bounded LRU
// under one lock, keyed by a Key — (table entry, SHA-256 of the token).
// An entry holds up to three things:
//   - a prefix: the ascending positions a scan of the token found among
//     the table's first Scanned tuples. The key's table half names one
//     installed table object, which only ever grows (a replacement is a
//     new object under a new key), so after appends a prefix is still
//     exact for its tuples and the caller scans only tuples[Scanned:];
//   - the token's selectivity — hits over positions tested, summed over
//     every scan of it, marginal and narrowed — which the conjunctive
//     planner orders by. Each table object also keeps a per-word-length
//     prior, the estimate for tokens it has not seen;
//   - while a scan of the token runs, its flight: reads of the same key
//     and tuple count wait for it and share its positions instead of
//     scanning again (counted in scanshare.Stats).
//
// Memoising is sound and leaks nothing: trapdoors are deterministic per
// plaintext word and ψ is a deterministic, tuple-local scan, so a repeat
// is pure recomputation; positions per trapdoor ARE the access pattern
// every query reveals (ph.Result carries them on the wire), selectivity
// is their count, and which identical trapdoors are in flight at once is
// visible in the request stream. The key holds a digest, not the token.
//
// Positions are shared, not copied: Lookup hands out the stored slice,
// which every holder only reads. It is stored with cap == len, so even
// an append to it copies; a delta completes it in a copy of its own.
package cache

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"sync"

	"repro/internal/scanshare"
)

// defaultMaxBytes is the default memo capacity: roughly the memory its
// entries may hold. Entries are position lists, not tuples, so even this
// holds millions of hit positions.
const defaultMaxBytes = 8 << 20

// entryOverhead approximates what an entry costs beside its positions:
// its key, its counters and its slots in the list and the index.
const entryOverhead = sha256.Size + 64

// defaultPrior is the selectivity assumed before any observation, even
// of the token's word length: pessimistic, so an unknown conjunct is
// never ordered ahead of one the memo has measured as selective.
const defaultPrior = 0.5

// Outcome classifies a Lookup.
type Outcome int

const (
	// Miss: no usable prefix; the caller must scan the whole table.
	Miss Outcome = iota
	// Delta: the prefix covers the first entry.Scanned tuples; the caller
	// scans only the tail tuples[entry.Scanned:] and merges.
	Delta
	// Hit: the prefix covers the whole table as it stands; the positions
	// are exact.
	Hit
)

// Entry is one memoised scan result: a prefix.
type Entry struct {
	// Positions are the matching tuple indices, ascending, within the
	// scanned prefix. They are shared: read them, never write them.
	Positions []int
	// Scanned is the number of leading tuples the positions cover.
	Scanned int
}

// Stats are the memo's monotonic counters for its prefixes.
type Stats struct {
	// Hits counts lookups answered entirely from a prefix.
	Hits uint64
	// Deltas counts lookups answered by a prefix plus a tail scan.
	Deltas uint64
	// Misses counts lookups that found no usable prefix.
	Misses uint64
	// Evictions counts entries dropped to respect the size bound.
	Evictions uint64
	// Invalidations counts entries dropped by InvalidateTable.
	Invalidations uint64
}

// Key identifies one token on one table object.
type Key struct {
	// Table names one installed table object; it must change whenever the
	// table's contents are replaced rather than appended to.
	Table uint64
	// Token is sha256.Sum256 of the opaque query token.
	Token [sha256.Size]byte
}

// observed sums evaluations of a token, or of a word length: hits among
// the positions tested.
type observed struct{ hits, tested uint64 }

func (o *observed) add(hits, tested int) {
	o.hits, o.tested = o.hits+uint64(hits), o.tested+uint64(tested)
}

func (o observed) sel() float64 { return float64(o.hits) / float64(o.tested) }

// errAborted is what waiters read if the leader's scan panics: they must
// not take its never-written outcome for an empty answer.
var errAborted = errors.New("cache: the scan this query was waiting on did not complete")

// flight is one scan in progress over a table's first n tuples;
// positions and err are written by the leader before done is released.
type flight struct {
	n         int
	done      sync.WaitGroup
	positions []int
	err       error
}

// entry is what the memo knows of one key.
type entry struct {
	key Key
	Entry
	seen   observed
	flight *flight
	el     *list.Element // its place in the LRU list
	bytes  int64         // charged against the bound
}

// table is one table object's entries and its per-word-length prior.
type table struct {
	entries map[[sha256.Size]byte]*entry
	prior   map[int]observed
}

// Cache is the memo: a bounded, concurrency-safe LRU of entries.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	ll       *list.List // front = most recently used
	tables   map[uint64]table
	stats    Stats
	share    scanshare.Stats
}

// New creates a memo bounded at maxBytes; maxBytes <= 0 selects the
// default, 8 MiB.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = defaultMaxBytes
	}
	return &Cache{maxBytes: maxBytes, ll: list.New(), tables: make(map[uint64]table)}
}

// touch returns k's table and entry, made if absent, and makes the entry
// the most recently used. Callers hold c.mu, and evict once they have
// charged what they add.
func (c *Cache) touch(k Key) (table, *entry) {
	t, ok := c.tables[k.Table]
	if !ok {
		t = table{entries: make(map[[sha256.Size]byte]*entry), prior: make(map[int]observed)}
		c.tables[k.Table] = t
	}
	e := t.entries[k.Token]
	if e == nil {
		e = &entry{key: k, bytes: entryOverhead}
		e.el = c.ll.PushFront(e)
		t.entries[k.Token] = e
		c.size += entryOverhead
	}
	c.ll.MoveToFront(e.el)
	return t, e
}

// evict drops least recently used entries until the memo is within its
// bound, always keeping the one just used: a memo too small for any
// position set still learns, and still shares the scan in flight.
// Callers hold c.mu.
func (c *Cache) evict() {
	for c.size > c.maxBytes && c.ll.Len() > 1 {
		c.remove(c.ll.Back().Value.(*entry))
		c.stats.Evictions++
	}
}

// remove unlinks one entry from the list, the index and the size
// accounting; a table object left with no entry goes too, prior and
// all, so a table no read reaches any more holds nothing. Callers hold
// c.mu.
func (c *Cache) remove(e *entry) {
	c.ll.Remove(e.el)
	t := c.tables[e.key.Table]
	if delete(t.entries, e.key.Token); len(t.entries) == 0 {
		delete(c.tables, e.key.Table)
	}
	c.size -= e.bytes
}

// Lookup returns k's prefix, given the table's current tuple count. The
// positions are the memo's own, shared read-only. Outcome Hit means they
// are exact for the whole table; Delta means they are exact for the first
// entry.Scanned tuples and the caller must scan the tail; Miss means
// there is no prefix, or one that claims more tuples than the table holds.
func (c *Cache) Lookup(k Key, tupleCount int) (Entry, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.tables[k.Table].entries[k.Token]
	if e == nil || e.Positions == nil || e.Scanned > tupleCount {
		c.stats.Misses++
		return Entry{}, Miss
	}
	c.ll.MoveToFront(e.el)
	if e.Scanned == tupleCount {
		c.stats.Hits++
		return e.Entry, Hit
	}
	c.stats.Deltas++
	return e.Entry, Delta
}

// Estimate returns the token's estimated selectivity in [0, 1] and
// whether it comes from observations of this very token (known) rather
// than from its table's prior for tokens of wordLen bytes — the mean
// observed selectivity of that length, or defaultPrior before any.
func (c *Cache) Estimate(k Key, wordLen int) (sel float64, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.tables[k.Table].entries[k.Token]; e != nil && e.seen.tested > 0 {
		return e.seen.sel(), true
	}
	if o := c.tables[k.Table].prior[wordLen]; o.tested > 0 {
		return o.sel(), false
	}
	return defaultPrior, false
}

// Store records one evaluation of k's token: it tested tested positions
// and hit hits of them, observed under the token's word length wordLen
// (0 ≤ hits ≤ tested, or the observation is ignored). Non-nil positions
// are also a prefix over the first scanned tuples, which the memo adopts
// without a copy — the caller does not write to them after the call —
// unless it already holds a longer one: a table object only grows, so of
// two prefixes for one key the one that scanned more tuples is the
// fresher. A prefix larger than the whole memo is not held.
func (c *Cache) Store(k Key, positions []int, scanned, wordLen, hits, tested int) {
	seen := tested > 0 && hits >= 0 && hits <= tested
	sz := entryOverhead + int64(cap(positions))*8
	held := positions != nil && sz <= c.maxBytes
	if !seen && !held {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, e := c.touch(k)
	if seen {
		e.seen.add(hits, tested)
		p := t.prior[wordLen]
		p.add(hits, tested)
		t.prior[wordLen] = p
	}
	if held && (e.Positions == nil || e.Scanned <= scanned) {
		c.size += sz - e.bytes
		e.bytes, e.Entry = sz, Entry{Positions: positions[:len(positions):len(positions)], Scanned: scanned}
	}
	c.evict()
}

// Scan returns scan()'s ascending match positions of k's token over the
// table's first n tuples, running scan on the calling goroutine unless
// an identical one — same key, same n — is in flight, in which case it
// waits for that one and returns its outcome, positions or error alike.
// The positions are shared between the leader and every query that
// waited and must not be written.
//
// A flight leaves the memo before its waiters are released, so a query
// that arrives once an answer exists always starts afresh and can never
// be handed a scan of an older snapshot.
func (c *Cache) Scan(k Key, n int, scan func() ([]int, error)) ([]int, error) {
	c.mu.Lock()
	_, e := c.touch(k)
	if f := e.flight; f != nil && f.n == n {
		c.share.Attached++
		c.mu.Unlock()
		f.done.Wait()
		return f.positions, f.err
	}
	c.share.Passes++
	c.share.Riders++
	if e.flight != nil { // a scan of another length holds the entry
		c.mu.Unlock()
		return scan()
	}
	f := &flight{n: n, err: errAborted}
	f.done.Add(1)
	e.flight = f
	c.evict()
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		e.flight = nil
		c.mu.Unlock()
		f.done.Done()
	}()
	f.positions, f.err = scan()
	return f.positions, f.err
}

// InvalidateTable drops every entry of the given Key.Table, and its
// prior. Called when that table object is retired (replace, drop,
// snapshot install): its entries can no longer be looked up, so this
// reclaims their memory. Compaction does not invalidate — it rewrites the
// durable log, not the tuples, so prefixes stay exact.
func (c *Cache) InvalidateTable(table uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.tables[table].entries {
		c.remove(e)
		c.stats.Invalidations++
	}
}

// Stats returns a snapshot of the prefix counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ShareStats returns a snapshot of the scan counters.
func (c *Cache) ShareStats() scanshare.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.share
}
