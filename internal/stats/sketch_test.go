package stats

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
)

// The planner's selectivity sketch is the estimate the per-trapdoor memo
// keeps (cache.Cache.Estimate); token is the memo key of token d, and
// 0.5 the memo's estimate before any observation.
func token(d int) cache.Key { return cache.Key{Table: 1, Token: sha256.Sum256(fmt.Append(nil, d))} }

const defaultPrior = 0.5

func TestQuerySketchEstimates(t *testing.T) {
	s := cache.New(0)
	d1, d2 := token(1), token(2)

	// Unobserved token, empty length bucket: the default prior.
	if sel, known := s.Estimate(d1, 8); known || sel != defaultPrior {
		t.Fatalf("fresh memo: got (%v, %v), want (%v, false)", sel, known, defaultPrior)
	}

	s.Store(d1, nil, 0, 8, 5, 1000)
	sel, known := s.Estimate(d1, 8)
	if !known || sel != 0.005 {
		t.Fatalf("observed token: got (%v, %v), want (0.005, true)", sel, known)
	}
	// Sibling token of the same length inherits the bucket prior.
	sel, known = s.Estimate(d2, 8)
	if known || sel != 0.005 {
		t.Fatalf("sibling token: got (%v, %v), want bucket prior 0.005", sel, known)
	}
	// A different length bucket stays at the default prior.
	if sel, _ := s.Estimate(d2, 16); sel != defaultPrior {
		t.Fatalf("other length bucket: got %v, want %v", sel, defaultPrior)
	}

	// Aggregation: a second observation refines the same token.
	s.Store(d1, nil, 0, 8, 15, 1000)
	if sel, _ := s.Estimate(d1, 8); sel != 0.01 {
		t.Fatalf("aggregated estimate: got %v, want 0.01", sel)
	}
}

func TestQuerySketchRejectsBadObservations(t *testing.T) {
	s := cache.New(0)
	d := token(7)
	s.Store(d, nil, 0, 4, -1, 10)
	s.Store(d, nil, 0, 4, 5, 0)
	s.Store(d, nil, 0, 4, 11, 10)
	if _, known := s.Estimate(d, 4); known {
		t.Fatal("invalid observations must not register")
	}
}

// TestQuerySketchEvictionBounded: observations are memo entries, held
// within the memo's byte bound (an entry costs more than 64 bytes),
// least recently used first out.
func TestQuerySketchEvictionBounded(t *testing.T) {
	const bound = 4 << 10
	s, kept := cache.New(bound), 0
	for i := 0; i < 200; i++ {
		s.Store(token(i), nil, 0, 4, 1, 10)
	}
	for i := 0; i < 200; i++ {
		if _, known := s.Estimate(token(i), 4); known {
			kept++
		}
	}
	if kept > bound/64 {
		t.Fatalf("memo holds %d observed tokens, its bound room for at most %d", kept, bound/64)
	}
	// The newest token survived; the oldest was evicted back to the prior.
	if _, known := s.Estimate(token(199), 4); !known {
		t.Fatal("newest token evicted")
	}
	if _, known := s.Estimate(token(0), 4); known {
		t.Fatal("oldest token still tracked past the bound")
	}
}

func TestQuerySketchConcurrent(t *testing.T) {
	s := cache.New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := token(g)
			for i := 0; i < 200; i++ {
				s.Store(d, nil, 0, 4, 1, 100)
				s.Estimate(d, 4)
				s.Estimate(token(-1), 4)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if sel, known := s.Estimate(token(g), 4); !known || sel != 0.01 {
			t.Fatalf("goroutine %d estimate: got (%v, %v), want (0.01, true)", g, sel, known)
		}
	}
}
