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

func TestLookupOutcomes(t *testing.T) {
	c := New(0)
	if _, out := c.Lookup(k(1, "a"), 10); out != Miss {
		t.Fatalf("empty cache lookup = %v, want Miss", out)
	}
	c.Store(k(1, "a"), Entry{Positions: []int{1, 4}, Scanned: 10})

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
	// An entry claiming more tuples than the table holds is unusable.
	if _, out = c.Lookup(k(1, "a"), 9); out != Miss {
		t.Fatalf("shrunk-table lookup = %v, want Miss", out)
	}
	// Different token: miss.
	if _, out = c.Lookup(k(1, "b"), 10); out != Miss {
		t.Fatalf("other-token lookup = %v, want Miss", out)
	}

	s := c.Stats()
	if s.Hits != 1 || s.Deltas != 1 || s.Misses != 4 {
		t.Fatalf("stats = %+v, want 1 hit, 1 delta, 4 misses", s)
	}
}

func TestLookupReturnsPrivateCopy(t *testing.T) {
	c := New(0)
	c.Store(k(1, "a"), Entry{Positions: []int{7}, Scanned: 3})
	e, _ := c.Lookup(k(1, "a"), 3)
	e.Positions[0] = 99
	e.Positions = append(e.Positions, 100)
	if e2, _ := c.Lookup(k(1, "a"), 3); e2.Positions[0] != 7 || len(e2.Positions) != 1 {
		t.Fatalf("cache entry mutated through a lookup result: %v", e2.Positions)
	}
}

// TestStoreNewerVersionWins: a table object only grows, so of two entries
// for one key the longer scan is the newer one.
func TestStoreNewerVersionWins(t *testing.T) {
	c := New(0)
	c.Store(k(1, "a"), Entry{Positions: []int{1, 2}, Scanned: 20})
	// A straggler from a shorter snapshot must not clobber the longer entry.
	c.Store(k(1, "a"), Entry{Positions: []int{1}, Scanned: 10})
	e, out := c.Lookup(k(1, "a"), 20)
	if out != Hit || e.Scanned != 20 || len(e.Positions) != 2 {
		t.Fatalf("lookup after stale store = %v %+v, want the 20-tuple entry", out, e)
	}
	// An equal or longer scan replaces.
	c.Store(k(1, "a"), Entry{Positions: []int{1, 2, 3}, Scanned: 30})
	if e, _ := c.Lookup(k(1, "a"), 30); e.Scanned != 30 || len(e.Positions) != 3 {
		t.Fatalf("longer store did not replace: %+v", e)
	}
}

func TestInvalidateTable(t *testing.T) {
	c := New(0)
	c.Store(k(1, "a"), Entry{Positions: []int{1}, Scanned: 5})
	c.Store(k(1, "b"), Entry{Positions: []int{2}, Scanned: 5})
	c.Store(k(2, "a"), Entry{Positions: []int{3}, Scanned: 5})
	c.InvalidateTable(1)
	if _, out := c.Lookup(k(1, "a"), 5); out != Miss {
		t.Fatal("invalidated entry still served")
	}
	if _, out := c.Lookup(k(2, "a"), 5); out != Hit {
		t.Fatal("unrelated table's entry was invalidated")
	}
	if n := c.Len(); n != 1 {
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
		positions := make([]int, 100)
		c.Store(k(1, fmt.Sprintf("tok%d", i)), Entry{Positions: positions, Scanned: 100})
	}
	if sz := c.SizeBytes(); sz > 3*900 {
		t.Fatalf("SizeBytes %d exceeds bound", sz)
	}
	if n := c.Len(); n == 0 || n > 3 {
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
		c.Store(k(1, fmt.Sprintf("tok%d", i)), Entry{Positions: make([]int, 100), Scanned: 100})
	}
	// Touch tok0 so tok1 becomes the LRU victim.
	if _, out := c.Lookup(k(1, "tok0"), 100); out != Hit {
		t.Fatal("warm entry missing")
	}
	c.Store(k(1, "tok3"), Entry{Positions: make([]int, 100), Scanned: 100})
	if _, out := c.Lookup(k(1, "tok0"), 100); out != Hit {
		t.Fatal("recently used entry evicted before the LRU one")
	}
	if _, out := c.Lookup(k(1, "tok1"), 100); out != Miss {
		t.Fatal("LRU entry survived")
	}
}

func TestOversizedEntryNotStored(t *testing.T) {
	c := New(100)
	c.Store(k(1, "big"), Entry{Positions: make([]int, 1000), Scanned: 1000})
	if n := c.Len(); n != 0 {
		t.Fatalf("oversized entry stored, Len = %d", n)
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
				switch i % 4 {
				case 0:
					c.Store(key, Entry{Positions: []int{i}, Scanned: i + 1})
				case 3:
					c.InvalidateTable(table)
				default:
					c.Lookup(key, i+1)
				}
			}
		}(g)
	}
	wg.Wait()
}
