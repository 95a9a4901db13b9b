// Package scanshare deduplicates identical scans in flight (layer 14 of
// DESIGN.md). The paper's server-side search is a full pass per query
// token, and the result cache only absorbs a repeat once the first
// answer has been written back — so a herd of N cold queries carrying
// the *same* trapdoor would pay N scans of the same tuples for the same
// positions. This layer is the single-flight in front of the scan: the
// first arrival runs it, on its own goroutine, and identical arrivals
// while it runs wait and share its position slice.
//
// Identical means the same cache.Key — the same table entry and the same
// token digest — and the same snapshot length: trapdoors are
// deterministic per plaintext word, so this is pure recomputation
// avoidance, the same argument as the result cache, under the same key.
// Queries with *distinct* trapdoors share nothing — ψ is one PRF
// evaluation per (trapdoor, cipherword), so there is no work to share —
// and each scans on its caller's goroutine under internal/sched's budget
// like any other scan.
//
// Leakage: sharing reveals nothing to the server it could not already
// see. Which trapdoors are in flight at once — co-arrival of identical
// tokens — is observable from the request stream by construction; the
// position set a scan produces is exactly the access pattern each query
// reveals on its own.
package scanshare

import (
	"errors"
	"sync"

	"repro/internal/cache"
)

// Stats are the sharer's monotonic counters.
type Stats struct {
	// Passes counts scans started.
	Passes uint64
	// Riders counts distinct scans registered in the in-flight map; every
	// one starts its own scan, so it moves with Passes.
	Riders uint64
	// Attached counts queries answered by waiting on an identical scan
	// already in flight (no scan of their own).
	Attached uint64
	// Shards and Inline counted work of the retired shard-cursor pass and
	// stay zero; the benchmark's trace still subtracts them.
	Shards uint64
	Inline uint64
}

// flightKey identifies one scan: which token over which entry's first n
// tuples.
type flightKey struct {
	key cache.Key
	n   int
}

// errAborted is what waiters read if the leader's scan panics: they must
// not take its never-written outcome for an empty answer.
var errAborted = errors.New("scanshare: the scan this query was waiting on did not complete")

// flight is one scan in progress; positions and err are written by the
// leader before done is closed.
type flight struct {
	done      chan struct{}
	positions []int
	err       error
}

// Sharer is a single-flight over full-table scans. One Sharer serves a
// whole store; tables are told apart by the key's table half, as in the
// result cache.
type Sharer struct {
	mu       sync.Mutex
	inflight map[flightKey]*flight
	stats    Stats
}

// New creates a Sharer.
func New() *Sharer {
	return &Sharer{inflight: make(map[flightKey]*flight)}
}

// Stats returns a snapshot of the sharer's counters.
func (s *Sharer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Scan returns scan()'s ascending match positions of key's token over the
// first n tuples of key's table, running scan on the calling goroutine
// unless an identical one is in flight, in which case it waits for that
// one and returns its outcome — positions or error alike. The slice is shared
// between the leader and every attached query and must not be mutated.
//
// A flight leaves the map before its waiters are released, so a query
// that arrives once an answer exists always starts afresh and can never
// be handed a scan of an older snapshot.
func (s *Sharer) Scan(key cache.Key, n int, scan func() ([]int, error)) ([]int, error) {
	k := flightKey{key: key, n: n}
	s.mu.Lock()
	if f := s.inflight[k]; f != nil {
		s.stats.Attached++
		s.mu.Unlock()
		<-f.done
		return f.positions, f.err
	}
	f := &flight{done: make(chan struct{}), err: errAborted}
	s.inflight[k] = f
	s.stats.Passes++
	s.stats.Riders++
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(f.done)
	}()
	f.positions, f.err = scan()
	return f.positions, f.err
}
