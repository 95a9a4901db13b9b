// Package scanshare names the counters of the scan single-flight, which
// lives in the per-trapdoor memo (internal/cache, Cache.Scan). The
// paper's server-side search is a full pass per query token, and a
// memoised answer only absorbs a repeat once the first scan has been
// written back — so a herd of N cold queries carrying the *same*
// trapdoor would pay N scans of the same tuples for the same positions.
// The memo's flight is the single-flight in front of the scan: the
// first arrival runs it, on its own goroutine, and identical arrivals
// while it runs wait and share its position slice.
//
// Identical means the same cache.Key — the same table entry and the same
// token digest — and the same snapshot length: trapdoors are
// deterministic per plaintext word, so this is pure recomputation
// avoidance. Queries with *distinct* trapdoors share nothing — ψ is one
// PRF evaluation per (trapdoor, cipherword), so there is no work to
// share — and each scans on its caller's goroutine under
// internal/sched's budget like any other scan.
//
// Leakage: sharing reveals nothing to the server it could not already
// see. Which trapdoors are in flight at once — co-arrival of identical
// tokens — is observable from the request stream by construction; the
// position set a scan produces is exactly the access pattern each query
// reveals on its own.
package scanshare

// Stats are the single-flight's monotonic counters.
type Stats struct {
	// Passes counts scans started.
	Passes uint64
	// Riders counts distinct scans started; every one runs its own scan,
	// so it moves with Passes.
	Riders uint64
	// Attached counts queries answered by waiting on an identical scan
	// already in flight (no scan of their own).
	Attached uint64
	// Shards and Inline counted work of the retired shard-cursor pass and
	// stay zero; the benchmark's trace still subtracts them.
	Shards uint64
	Inline uint64
}
