package cache

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// k is the key of token on the table object installed at version table.
func k(table uint64, token string) Key {
	return Key{Table: table, Token: sha256.Sum256([]byte(token))}
}

// put stores positions as k's prefix over scanned tuples, observing nothing.
func put(c *Cache, k Key, positions []int, scanned int) { c.Store(k, positions, scanned, 0, 0, 0) }

func TestLookupOutcomes(t *testing.T) {
	c := New(0)
	if _, out := c.Lookup(k(1, "a"), 10); out != Miss {
		t.Fatalf("empty memo lookup = %v, want Miss", out)
	}
	put(c, k(1, "a"), []int{1, 4}, 10)

	// Exact coverage: hit.
	e, out := c.Lookup(k(1, "a"), 10)
	if out != Hit || len(e.Positions) != 2 || e.Positions[0] != 1 || e.Positions[1] != 4 {
		t.Fatalf("lookup = %v %v, want Hit [1 4]", out, e.Positions)
	}
	// Table grew (appends): delta.
	if e, out = c.Lookup(k(1, "a"), 15); out != Delta || e.Scanned != 10 {
		t.Fatalf("grown-table lookup = %v scanned %d, want Delta 10", out, e.Scanned)
	}
	// The table was replaced: its successor is another entry, another key.
	if _, out = c.Lookup(k(5, "a"), 10); out != Miss {
		t.Fatalf("replaced-table lookup = %v, want Miss", out)
	}
	// A prefix claiming more tuples than the table holds is unusable.
	if _, out = c.Lookup(k(1, "a"), 9); out != Miss {
		t.Fatalf("shrunk-table lookup = %v, want Miss", out)
	}
	// A token only observed, never scanned whole, and another token: miss.
	c.Store(k(1, "b"), nil, 0, 4, 1, 10)
	for _, tok := range []string{"b", "c"} {
		if _, out = c.Lookup(k(1, tok), 10); out != Miss {
			t.Fatalf("token %s lookup = %v, want Miss", tok, out)
		}
	}

	s := c.Stats()
	if s.Hits != 1 || s.Deltas != 1 || s.Misses != 5 {
		t.Fatalf("stats = %+v, want 1 hit, 1 delta, 5 misses", s)
	}
}

// TestLookupReturnsPrivateCopy: a lookup shares the memo's positions,
// held with cap == len, so a delta's append to them copies and the
// memo's prefix is never written through a lookup.
func TestLookupReturnsPrivateCopy(t *testing.T) {
	c := New(0)
	put(c, k(1, "a"), append(make([]int, 0, 8), 7), 3)
	e, _ := c.Lookup(k(1, "a"), 3)
	grown := append(e.Positions, 100)
	grown[0] = 99
	if e2, _ := c.Lookup(k(1, "a"), 3); e2.Positions[0] != 7 || len(e2.Positions) != 1 || cap(e2.Positions) != 1 {
		t.Fatalf("memo prefix written through a lookup result: %v (cap %d)", e2.Positions, cap(e2.Positions))
	}
}

// TestStoreNewerVersionWins: a table object only grows, so of two prefixes
// for one key the longer scan is the newer one.
func TestStoreNewerVersionWins(t *testing.T) {
	c := New(0)
	put(c, k(1, "a"), []int{1, 2}, 20)
	// A straggler from a shorter snapshot must not clobber the longer prefix.
	put(c, k(1, "a"), []int{1}, 10)
	e, out := c.Lookup(k(1, "a"), 20)
	if out != Hit || e.Scanned != 20 || len(e.Positions) != 2 {
		t.Fatalf("lookup after stale store = %v %+v, want the 20-tuple prefix", out, e)
	}
	// An equal or longer scan replaces.
	put(c, k(1, "a"), []int{1, 2, 3}, 30)
	if e, _ := c.Lookup(k(1, "a"), 30); e.Scanned != 30 || len(e.Positions) != 3 {
		t.Fatalf("longer store did not replace: %+v", e)
	}
}

// TestInvalidateTable: retiring a table object drops its entries and its
// prior, and nothing of another table's.
func TestInvalidateTable(t *testing.T) {
	c := New(0)
	c.Store(k(1, "a"), []int{1}, 5, 4, 1, 5)
	put(c, k(1, "b"), []int{2}, 5)
	put(c, k(2, "a"), []int{3}, 5)
	c.InvalidateTable(1)
	if _, out := c.Lookup(k(1, "a"), 5); out != Miss {
		t.Fatal("invalidated entry still served")
	}
	if sel, known := c.Estimate(k(1, "z"), 4); known || sel != defaultPrior {
		t.Fatalf("invalidated table's prior survived: (%v, %v)", sel, known)
	}
	if _, out := c.Lookup(k(2, "a"), 5); out != Hit {
		t.Fatal("unrelated table's entry was invalidated")
	}
	if n := c.ll.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if s := c.Stats(); s.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", s.Invalidations)
	}
}

func TestEvictionBound(t *testing.T) {
	// Each entry: 100 positions ≈ 800 B + overhead. Bound at ~3 entries.
	c := New(3 * 900)
	for i := 0; i < 10; i++ {
		put(c, k(1, fmt.Sprintf("tok%d", i)), make([]int, 100), 100)
	}
	if sz := c.size; sz > 3*900 {
		t.Fatalf("SizeBytes %d exceeds bound", sz)
	}
	if n := c.ll.Len(); n == 0 || n > 3 {
		t.Fatalf("Len = %d, want 1..3", n)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("no evictions counted despite overflow")
	}
	// The most recently stored entry must have survived; the oldest gone.
	if _, out := c.Lookup(k(1, "tok9"), 100); out != Hit {
		t.Fatal("most recent entry was evicted")
	}
	if _, out := c.Lookup(k(1, "tok0"), 100); out != Miss {
		t.Fatal("oldest entry survived past the bound")
	}
}

func TestLRUOrderRespectsLookups(t *testing.T) {
	c := New(3 * 900)
	for i := 0; i < 3; i++ {
		put(c, k(1, fmt.Sprintf("tok%d", i)), make([]int, 100), 100)
	}
	// Touch tok0 so tok1 becomes the LRU victim.
	if _, out := c.Lookup(k(1, "tok0"), 100); out != Hit {
		t.Fatal("warm entry missing")
	}
	put(c, k(1, "tok3"), make([]int, 100), 100)
	if _, out := c.Lookup(k(1, "tok0"), 100); out != Hit {
		t.Fatal("recently used entry evicted before the LRU one")
	}
	if _, out := c.Lookup(k(1, "tok1"), 100); out != Miss {
		t.Fatal("LRU entry survived")
	}
}

// TestOversizedEntryNotStored: a prefix larger than the whole memo is not
// held; the selectivity observed with it is.
func TestOversizedEntryNotStored(t *testing.T) {
	c := New(200)
	put(c, k(1, "big"), make([]int, 1000), 1000)
	if n := c.ll.Len(); n != 0 {
		t.Fatalf("oversized prefix stored, Len = %d", n)
	}
	c.Store(k(1, "big"), make([]int, 1000), 1000, 4, 1000, 1000)
	if _, out := c.Lookup(k(1, "big"), 1000); out != Miss {
		t.Fatalf("oversized prefix served: %v", out)
	}
	if sel, known := c.Estimate(k(1, "big"), 4); !known || sel != 1 {
		t.Fatalf("estimate = (%v, %v), want the observed (1, true)", sel, known)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				table := uint64(g % 4)
				key := k(table, fmt.Sprintf("tok%d", i%16))
				switch i % 5 {
				case 0:
					c.Store(key, []int{i}, i+1, 4, 1, i+1)
				case 1:
					c.Scan(key, i%3, func() ([]int, error) { return []int{i}, nil })
				case 2:
					c.Estimate(key, 4)
				case 4:
					c.InvalidateTable(table)
				default:
					c.Lookup(key, i+1)
				}
			}
		}(g)
	}
	wg.Wait()
}
