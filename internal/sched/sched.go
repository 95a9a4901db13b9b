// Package sched provides the server-wide parallelism budget: a weighted
// semaphore sized to runtime.GOMAXPROCS that every multi-core scan in the
// process draws its workers from.
//
// Before the budget existed, core.Evaluate sized a worker pool at
// GOMAXPROCS *per query* and the server put several queries of a batch in
// flight per frame, so C concurrent clients could stack C×GOMAXPROCS scan
// goroutines. The runtime still bounds CPU at GOMAXPROCS threads, but the
// oversubscription inflates scheduling latency and tail latency under
// load. With the budget, the total number of *extra* scan workers across
// all concurrent queries never exceeds the budget's capacity.
//
// Deadlock freedom: Acquire never blocks. The calling goroutine itself is
// always granted as the first worker — it exists anyway, so letting it
// scan costs no new goroutine — and only the extra workers are drawn from
// spare capacity. A query therefore always makes progress (worst case:
// single-threaded), no matter how saturated the budget is.
package sched

import (
	"runtime"
	"sync/atomic"
)

// Budget is a weighted semaphore handing out scan workers. The zero value
// is not usable; construct with NewBudget.
type Budget struct {
	capacity int64
	avail    atomic.Int64

	acquires atomic.Uint64
	extras   atomic.Uint64
	releases atomic.Uint64
}

// Stats are a budget's monotonic accounting counters. They exist so tests
// can assert allotment discipline — most importantly that a shared scan
// pass serving many riders draws ONE allotment, not one per rider.
type Stats struct {
	// Acquires counts Acquire calls (each is one allotment, whatever its
	// size).
	Acquires uint64
	// Extras counts the extra workers granted beyond the guaranteed
	// caller across all acquires.
	Extras uint64
	// Releases counts Release calls that returned extras (Release of a
	// minimum grant of 1 is a no-op and is not counted).
	Releases uint64
}

// Stats returns a snapshot of the budget's counters. The fields are read
// independently, so a snapshot taken concurrently with traffic may be
// momentarily unbalanced; quiesce before asserting exact values.
func (b *Budget) Stats() Stats {
	return Stats{
		Acquires: b.acquires.Load(),
		Extras:   b.extras.Load(),
		Releases: b.releases.Load(),
	}
}

// NewBudget creates a budget with the given capacity; capacities below 1
// are clamped to 1.
func NewBudget(capacity int) *Budget {
	if capacity < 1 {
		capacity = 1
	}
	b := &Budget{capacity: int64(capacity)}
	b.avail.Store(int64(capacity))
	return b
}

// Capacity returns the budget's total worker count.
func (b *Budget) Capacity() int { return int(b.capacity) }

// Idle returns how many workers are currently unclaimed (for tests and
// introspection; the value may be stale by the time it is read).
func (b *Budget) Idle() int { return int(b.avail.Load()) }

// Acquire grants between 1 and want workers without blocking. The caller
// itself is the first worker — the guaranteed minimum that makes the
// scheme deadlock-free — and up to want-1 extras are claimed from spare
// capacity. The return value must be handed back via Release.
func (b *Budget) Acquire(want int) int {
	if want < 1 {
		want = 1
	}
	extra := b.tryAcquire(int64(want - 1))
	b.acquires.Add(1)
	if extra > 0 {
		b.extras.Add(uint64(extra))
	}
	return 1 + extra
}

// Release returns the extra workers of an Acquire(…) = granted grant.
func (b *Budget) Release(granted int) {
	if granted <= 1 {
		return
	}
	b.avail.Add(int64(granted - 1))
	b.releases.Add(1)
}

// tryAcquire claims up to want units, returning how many it got (possibly
// zero). Lock-free: a CAS loop against the available count.
func (b *Budget) tryAcquire(want int64) int {
	if want <= 0 {
		return 0
	}
	for {
		cur := b.avail.Load()
		if cur <= 0 {
			return 0
		}
		got := min(want, cur)
		if b.avail.CompareAndSwap(cur, cur-got) {
			return int(got)
		}
	}
}

// process is the shared process-wide budget. Everything that scans in
// parallel — core.Evaluate today — takes workers from here, which is what
// bounds total scan parallelism across concurrent clients.
var process atomic.Pointer[Budget]

func init() {
	process.Store(NewBudget(runtime.GOMAXPROCS(0)))
}

// Process returns the process-wide budget. Callers must Release to the
// same *Budget they Acquired from (hold the pointer across the pair), so
// a concurrent SetProcess cannot unbalance the counts.
func Process() *Budget {
	return process.Load()
}

// SetProcess replaces the process-wide budget and returns the previous
// one. It exists for benchmarks that emulate the pre-budget behaviour
// (e.g. an oversized budget reproduces the old every-query-gets-
// GOMAXPROCS-workers oversubscription) and for servers that want a
// different capacity. In-flight Acquire/Release pairs stay balanced
// because holders release to the budget instance they acquired from.
func SetProcess(b *Budget) *Budget {
	if b == nil {
		b = NewBudget(runtime.GOMAXPROCS(0))
	}
	return process.Swap(b)
}
