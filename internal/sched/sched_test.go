package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAcquireMinimumOne(t *testing.T) {
	b := NewBudget(2)
	// Drain the budget entirely: the caller counts against capacity.
	got := b.Acquire(8)
	if got != 2 {
		t.Fatalf("Acquire(8) on fresh budget of 2 = %d, want 2", got)
	}
	if idle := b.Idle(); idle != 0 {
		t.Fatalf("Idle after drain = %d, want 0", idle)
	}
	// A saturated budget still grants the guaranteed minimum, immediately,
	// to any number of callers at once.
	for i := 0; i < 4; i++ {
		if g := b.Acquire(8); g != 1 {
			t.Fatalf("Acquire on saturated budget = %d, want 1", g)
		}
	}
	if idle := b.Idle(); idle != 0 {
		t.Fatalf("Idle on an overdrawn budget = %d, want 0", idle)
	}
	for i := 0; i < 4; i++ {
		b.Release(1)
	}
	b.Release(got)
	if idle := b.Idle(); idle != 2 {
		t.Fatalf("Idle after release = %d, want 2", idle)
	}
}

func TestAcquireClampsToWant(t *testing.T) {
	b := NewBudget(16)
	if got := b.Acquire(3); got != 3 {
		t.Fatalf("Acquire(3) = %d, want 3", got)
	}
	if idle := b.Idle(); idle != 13 {
		t.Fatalf("Idle = %d, want 13", idle)
	}
	if got := b.Acquire(0); got != 1 {
		t.Fatalf("Acquire(0) = %d, want 1 (clamped)", got)
	}
}

func TestNewBudgetClamps(t *testing.T) {
	if c := NewBudget(0).Idle(); c != 1 {
		t.Fatalf("NewBudget(0).Idle() = %d, want 1", c)
	}
	if c := NewBudget(-5).Idle(); c != 1 {
		t.Fatalf("NewBudget(-5).Idle() = %d, want 1", c)
	}
}

// TestConcurrentExtrasNeverExceedCapacity hammers the budget from many
// goroutines and asserts the invariant the whole design rests on: the sum
// of extra workers in flight stays below the capacity (a holder of extras
// counts itself too).
func TestConcurrentExtrasNeverExceedCapacity(t *testing.T) {
	const capacity = 4
	b := NewBudget(capacity)
	var extras atomic.Int64
	var peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				got := b.Acquire(capacity)
				if got < 1 || got > capacity {
					t.Errorf("Acquire = %d outside [1, %d]", got, capacity)
				}
				cur := extras.Add(int64(got - 1))
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				extras.Add(int64(-(got - 1)))
				b.Release(got)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p >= capacity {
		t.Fatalf("peak extra workers %d reaches capacity %d", p, capacity)
	}
	if idle := b.Idle(); idle != capacity {
		t.Fatalf("Idle after all releases = %d, want %d", idle, capacity)
	}
}

func TestProcessBudgetSwap(t *testing.T) {
	orig := Process()
	if orig.Idle() != runtime.GOMAXPROCS(0) {
		t.Fatalf("idle process budget holds %d workers, want GOMAXPROCS %d", orig.Idle(), runtime.GOMAXPROCS(0))
	}
	big := NewBudget(64)
	prev := SetProcess(big)
	if prev != orig {
		t.Fatal("SetProcess did not return the previous budget")
	}
	if Process() != big {
		t.Fatal("Process() did not observe the swapped budget")
	}
	// Restore; nil resets to a GOMAXPROCS-sized default.
	SetProcess(prev)
	if got := SetProcess(nil); got != prev {
		t.Fatal("restore lost the original budget")
	}
	if c := Process().Idle(); c != runtime.GOMAXPROCS(0) {
		t.Fatalf("nil reset capacity %d, want GOMAXPROCS", c)
	}
	SetProcess(orig)
}

func TestStatsCountAllotments(t *testing.T) {
	b := NewBudget(4)
	if s := b.Stats(); s != (Stats{}) {
		t.Fatalf("fresh budget stats = %+v, want zero", s)
	}
	g1 := b.Acquire(8) // caller + the 3 extras a budget of 4 has for it
	g2 := b.Acquire(8) // saturated: caller only
	if g1 != 4 || g2 != 1 {
		t.Fatalf("grants = %d, %d, want 4, 1", g1, g2)
	}
	if s := b.Stats(); s != (Stats{Acquires: 2, Extras: 3}) {
		t.Fatalf("stats = %+v, want 2 acquires, 3 extras, nothing released", s)
	}
	b.Release(g2)
	b.Release(g1)
	// Every release counts, minimum grants included: the counters balance.
	if s := b.Stats(); s.Releases != s.Acquires {
		t.Fatalf("stats at quiescence = %+v, want Acquires == Releases", s)
	}
	if idle := b.Idle(); idle != 4 {
		t.Fatalf("Idle = %d, want 4", idle)
	}
}
