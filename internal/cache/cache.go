// Package cache implements the server-side query result cache: a bounded
// LRU mapping a Key — (table entry, trapdoor digest) — to the hit
// positions of a previous scan, together with the prefix length that scan
// covered.
//
// Why caching is sound: the paper's trapdoors are deterministic per
// plaintext word, and the server-side evaluator ψ is a deterministic,
// tuple-local scan. Repeating a hot query is therefore pure
// recomputation, and the server may memoise it without learning anything
// it was not already shown — the result positions ARE the access pattern
// the scheme reveals per query by construction (ph.Result carries them on
// the wire). The key's token half is a SHA-256 digest of the opaque
// token, so the cache stores no more of the token than the server already
// holds, and colliding keys would require colliding digests.
//
// Delta scans: entries record how many tuples they scanned (Scanned).
// The key's table half names one installed table object, which only
// ever grows: a replacement is a new object under a new key, so no
// lookup of it reaches an entry of the old one, whenever that entry was
// stored. After appends, an entry's positions are still exact for the
// first Scanned tuples, so the caller re-scans only tuples[Scanned:] and
// merges — O(tail) instead of O(n).
package cache

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// DefaultMaxBytes is the default cache capacity: roughly the memory the
// cached position slices may hold. Small by design — entries are position
// lists, not tuples, so even the default holds millions of hit positions.
const DefaultMaxBytes = 8 << 20

// Outcome classifies a Lookup.
type Outcome int

const (
	// Miss: no usable entry; the caller must scan the whole table.
	Miss Outcome = iota
	// Delta: the entry covers a prefix; the caller scans only the tail
	// tuples[entry.Scanned:] and merges.
	Delta
	// Hit: the entry covers the whole table as it stands; the positions
	// are exact.
	Hit
)

// Entry is one cached scan result.
type Entry struct {
	// Positions are the matching tuple indices, ascending, within the
	// scanned prefix.
	Positions []int
	// Scanned is the number of leading tuples the positions cover.
	Scanned int
}

// Stats are the cache's monotonic counters.
type Stats struct {
	// Hits counts lookups answered entirely from the cache.
	Hits uint64
	// Deltas counts lookups answered by a prefix entry plus a tail scan.
	Deltas uint64
	// Misses counts lookups that found no usable entry.
	Misses uint64
	// Evictions counts entries dropped to respect the size bound.
	Evictions uint64
	// Invalidations counts entries dropped by InvalidateTable.
	Invalidations uint64
}

// Key identifies one cached result: the installed table object it was
// scanned from and the SHA-256 digest of the query token.
type Key struct {
	// Table names one installed table object; it must change whenever the
	// table's contents are replaced rather than appended to.
	Table uint64
	// Token is sha256.Sum256 of the opaque query token.
	Token [sha256.Size]byte
}

// item is the LRU list payload.
type item struct {
	k     Key
	entry Entry
}

// Cache is a bounded, concurrency-safe LRU result cache.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	ll       *list.List // front = most recently used
	items    map[uint64]map[[sha256.Size]byte]*list.Element
	stats    Stats
}

// New creates a cache bounded at maxBytes of cached positions;
// maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[uint64]map[[sha256.Size]byte]*list.Element),
	}
}

// entryBytes approximates an entry's memory footprint for the size bound.
// An adopted positions slice is held whole, spare capacity included.
func entryBytes(e Entry) int64 {
	return int64(cap(e.Positions)*8 + sha256.Size + 64)
}

// Lookup returns the cached entry for k, given the table's current tuple
// count. The returned positions are a private copy the caller may append
// to. Outcome Hit means the positions are exact for the whole table;
// Delta means they are exact for the first entry.Scanned tuples and the
// caller must scan the tail; Miss means there is no entry, or one that
// claims more tuples than the table holds.
func (c *Cache) Lookup(k Key, tupleCount int) (Entry, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k.Table][k.Token]
	if !ok || el.Value.(*item).entry.Scanned > tupleCount {
		c.stats.Misses++
		return Entry{}, Miss
	}
	e := el.Value.(*item).entry
	c.ll.MoveToFront(el)
	e.Positions = append(make([]int, 0, len(e.Positions)+8), e.Positions...)
	if e.Scanned == tupleCount {
		c.stats.Hits++
		return e, Hit
	}
	c.stats.Deltas++
	return e, Delta
}

// Store caches an entry under k. The cache adopts e.Positions without a
// copy: the caller does not write to them after the call, and neither
// does the cache (Lookup hands out a copy). A table object only grows,
// so of two entries for one key the one that scanned more tuples is the
// fresher: if it is already present (a concurrent query got there
// first), Store is a no-op. Entries larger than the whole cache are not
// stored.
func (c *Cache) Store(k Key, e Entry) {
	sz := entryBytes(e)
	if sz > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k.Table][k.Token]; ok {
		old := el.Value.(*item)
		if old.entry.Scanned > e.Scanned {
			return // a longer scan is already cached
		}
		c.size += sz - entryBytes(old.entry)
		old.entry = e
		c.ll.MoveToFront(el)
	} else {
		byToken := c.items[k.Table]
		if byToken == nil {
			byToken = make(map[[sha256.Size]byte]*list.Element)
			c.items[k.Table] = byToken
		}
		byToken[k.Token] = c.ll.PushFront(&item{k: k, entry: e})
		c.size += sz
	}
	for c.size > c.maxBytes {
		c.evictOldest()
	}
}

// evictOldest drops the least recently used entry. Callers hold c.mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.removeLocked(el)
	c.stats.Evictions++
}

// removeLocked unlinks one element from the list, the index and the size
// accounting. Callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	it := el.Value.(*item)
	c.ll.Remove(el)
	byToken := c.items[it.k.Table]
	delete(byToken, it.k.Token)
	if len(byToken) == 0 {
		delete(c.items, it.k.Table)
	}
	c.size -= entryBytes(it.entry)
}

// InvalidateTable drops every entry cached under the given Key.Table.
// Called when that table object is retired (replace, drop, snapshot
// install): its entries can no longer be looked up, so this reclaims
// their memory. Compaction does not invalidate — it rewrites the durable
// log, not the tuples, so cached positions stay exact.
func (c *Cache) InvalidateTable(table uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.items[table] {
		c.removeLocked(el)
		c.stats.Invalidations++
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// SizeBytes returns the approximate bytes held by cached entries.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
