package authindex

import (
	"math/rand"
	"testing"

	"repro/internal/ph"
)

// span returns the positions [from, to).
func span(from, to int) []int {
	out := make([]int, 0, to-from)
	for p := from; p < to; p++ {
		out = append(out, p)
	}
	return out
}

// TestLeafCacheEmptiesAtCap: a cache about to hold more than
// LeafCacheCap leaves is emptied first, keeps only the answer that
// overflowed it, and still verifies through a full fold afterwards.
func TestLeafCacheEmptiesAtCap(t *testing.T) {
	n := LeafCacheCap + LeafCacheCap/2
	tab := tableOf(n)
	tree := Build(tab)
	row := tree.CapRow()
	c := NewLeafCache()
	verify := func(positions []int) {
		t.Helper()
		proof, err := tree.ProveAnswer(positions)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyAnswer(row, n, positions, tuplesAt(tab, positions), proof); err != nil {
			t.Fatal(err)
		}
	}
	verify(span(0, LeafCacheCap-10))
	if got := c.Len(); got != LeafCacheCap-10 {
		t.Fatalf("cache holds %d leaves, want %d", got, LeafCacheCap-10)
	}
	verify(span(LeafCacheCap-10, LeafCacheCap+10)) // 10 too many
	if got := c.Len(); got != 20 {
		t.Fatalf("cache past its cap holds %d leaves, want only the 20 of the answer that overflowed it", got)
	}
	verify(span(0, 100)) // evicted: folds again
	if got := c.Len(); got != 120 {
		t.Fatalf("cache holds %d leaves, want 120", got)
	}
}

// TestLeafCacheHitAllocs: re-verifying a cached answer allocates
// nothing — its scratch is the cache's, and no node is hashed.
func TestLeafCacheHitAllocs(t *testing.T) {
	const n = 20_000
	tab := tableOf(n)
	tree := Build(tab)
	row := tree.CapRow()
	positions := randomPositions(rand.New(rand.NewSource(5)), 100, n)
	tuples := ph.SelectPositions(tab, positions).Tuples
	proof, err := tree.ProveAnswer(positions)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLeafCache()
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.VerifyAnswer(row, n, positions, tuples, proof); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a cached answer of %d tuples allocates %v objects, want 0", len(positions), allocs)
	}
}
