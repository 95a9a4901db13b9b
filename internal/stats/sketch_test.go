package stats

import (
	"sync"
	"testing"
)

func TestQuerySketchEstimates(t *testing.T) {
	s := NewQuerySketch()
	// Any 64-bit values serve as token digests.
	d1, d2 := uint64(1), uint64(2)

	// Unobserved token, empty length bucket: the default prior.
	if sel, known := s.Estimate(d1, 8); known || sel != defaultPrior {
		t.Fatalf("fresh sketch: got (%v, %v), want (%v, false)", sel, known, defaultPrior)
	}

	s.Observe(d1, 8, 5, 1000)
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
	s.Observe(d1, 8, 15, 1000)
	if sel, _ := s.Estimate(d1, 8); sel != 0.01 {
		t.Fatalf("aggregated estimate: got %v, want 0.01", sel)
	}
}

func TestQuerySketchRejectsBadObservations(t *testing.T) {
	s := NewQuerySketch()
	d := uint64(7)
	s.Observe(d, 4, -1, 10)
	s.Observe(d, 4, 5, 0)
	s.Observe(d, 4, 11, 10)
	if _, known := s.Estimate(d, 4); known {
		t.Fatal("invalid observations must not register")
	}
}

func TestQuerySketchEvictionBounded(t *testing.T) {
	s := NewQuerySketch()
	for i := 0; i < maxTrackedTokens+100; i++ {
		s.Observe(uint64(i), 4, 1, 10)
	}
	if got := len(s.byToken); got > maxTrackedTokens {
		t.Fatalf("sketch tracks %d tokens, cap is %d", got, maxTrackedTokens)
	}
	// The newest token survived; the oldest was evicted back to the prior.
	newest := uint64(maxTrackedTokens + 99)
	if _, known := s.Estimate(newest, 4); !known {
		t.Fatal("newest token evicted")
	}
	oldest := uint64(0)
	if _, known := s.Estimate(oldest, 4); known {
		t.Fatal("oldest token still tracked past the cap")
	}
}

func TestQuerySketchConcurrent(t *testing.T) {
	s := NewQuerySketch()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := uint64(g)
			for i := 0; i < 200; i++ {
				s.Observe(d, 4, 1, 100)
				s.Estimate(d, 4)
				s.Prior(4)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		d := uint64(g)
		if sel, known := s.Estimate(d, 4); !known || sel != 0.01 {
			t.Fatalf("goroutine %d estimate: got (%v, %v), want (0.01, true)", g, sel, known)
		}
	}
}
