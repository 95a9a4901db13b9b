// Package sched provides the process-wide parallelism budget: a weighted
// semaphore sized to runtime.GOMAXPROCS that every job in the process
// large enough to fan out draws its goroutines from — a server's scans
// that shard, and a client's bulk encryption (core.EncryptTable of a
// large table).
//
// The budget counts working goroutines, the caller's included: a job
// that finds the budget untouched fans out over every core, and one that
// arrives while another job holds the budget runs on its caller's
// goroutine alone, with no fork and no join — so k concurrent jobs run
// on about GOMAXPROCS goroutines, not k + GOMAXPROCS.
//
// Deadlock freedom: Acquire never blocks. The calling goroutine exists
// anyway, so it is always granted — overdrawing the budget when nothing
// is left — and a query therefore always makes progress (worst case:
// single-threaded), no matter how saturated the budget is.
package sched

import (
	"runtime"
	"sync/atomic"
)

// Budget is a weighted semaphore handing out workers. The zero value
// is not usable; construct with NewBudget.
type Budget struct {
	capacity int64
	// avail is capacity minus the workers granted and not yet released;
	// negative while callers granted on a drained budget are scanning.
	avail atomic.Int64

	acquires atomic.Uint64
	extras   atomic.Uint64
	releases atomic.Uint64
}

// Stats are a budget's monotonic accounting counters. They exist so tests
// can assert allotment discipline: one allotment per sharded scan or
// fanned-out encryption, none for a query that shares another's scan.
// Acquires == Releases at quiescence.
type Stats struct {
	// Acquires counts Acquire calls (each is one allotment, whatever its
	// size).
	Acquires uint64
	// Extras counts the workers granted beyond the caller across all
	// acquires.
	Extras uint64
	// Releases counts Release calls.
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
func (b *Budget) Idle() int { return int(max(b.avail.Load(), 0)) }

// Acquire grants between 1 and want workers without blocking: as many of
// want as the budget has left, the caller itself being the first, and 1
// when it has none — the guaranteed minimum that makes the scheme
// deadlock-free. The return value must be handed back via Release.
// Lock-free: a CAS loop against the available count.
func (b *Budget) Acquire(want int) int {
	for {
		cur := b.avail.Load()
		got := max(1, min(int64(want), cur))
		if b.avail.CompareAndSwap(cur, cur-got) {
			b.acquires.Add(1)
			b.extras.Add(uint64(got - 1))
			return int(got)
		}
	}
}

// Release returns the workers of an Acquire(…) = granted grant.
func (b *Budget) Release(granted int) {
	b.avail.Add(int64(granted))
	b.releases.Add(1)
}

// process is the shared process-wide budget. Everything that fans out —
// core's fork, under its sharded scans and its bulk encryption — takes
// workers from here, which is what bounds total parallelism across
// concurrent clients.
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
