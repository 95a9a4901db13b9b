// Package shard is the scatter-gather serving tier: it hash-partitions
// an encrypted table over N independent phserver backends and serves
// the whole read surface — point queries, batches, conjunctions,
// verified reads — by scattering every query to every shard and merging
// the per-shard answers in deterministic shard order.
//
// Two placements of the same machinery:
//
//   - Coordinator runs the scatter in-process over per-shard connection
//     pools (each pool is the replica-aware client.ReadPool, so every
//     shard keeps its own followers, quarantine backoff and failover).
//     It implements client.Cluster for a local client and server.Backend
//     so `phserver -coordinator -shards ...` can serve the same wire
//     commands to remote clients. It answers each in one envelope, framed
//     per shard: CmdQuery and CmdFetchAll with wire.RespResultShard,
//     CmdInsert with wire.RespInsertedShard. There is no merged answer.
//   - Remote implements client.Cluster over one connection to such a
//     coordinator process: it sends those ordinary commands and keeps
//     the per-shard sub-answers apart.
//
// The per-shard framing is what keeps the trust model intact: each
// shard maintains its own authenticated index, the client pins the
// *vector* of per-shard roots (the root-of-roots), and every sub-answer
// verifies against its own entry. A coordinator — in-process or remote
// — is pure routing: it can drop or garble answers (availability), but
// one mutated tuple on one shard fails that shard's verification and
// with it the whole read; it cannot poison the merge.
//
// Routing leaks nothing beyond the single-server baseline: search
// tokens are deliberately not routable (placement hashes ciphertext
// identity, not plaintext values), so every read is a broadcast and the
// coordinator learns only per-shard position counts — the same access
// pattern each shard's operator already sees.
package shard

import (
	"hash/fnv"

	"repro/internal/ph"
)

// Map is a versioned partition map: how many shards exist and which
// placement epoch the assignment belongs to. Placement is pure content
// hashing — deterministic from (Version, Count) and the tuple bytes —
// so a client and a coordinator that agree on the Map agree on where
// every tuple lives without any directory state.
type Map struct {
	// Version stamps the placement epoch. It is mixed into the
	// placement hash, so bumping it reshuffles tuples (a reshard), and
	// it is echoed on every coordinator response so a stale client
	// fails loudly instead of merging mis-routed answers.
	Version uint64
	// Count is the number of shards. Must be at least 1.
	Count int
}

// Route returns the shard a tuple lives on. The hash covers the
// encrypted tuple's identity (ID, falling back to Blob for schemes
// without per-tuple IDs) — never plaintext — so placement is stable
// across re-encryptions of the searchable words and reveals nothing a
// ciphertext doesn't.
func (m Map) Route(tp ph.EncryptedTuple) int {
	if m.Count <= 1 {
		return 0
	}
	h := fnv.New64a()
	var v [8]byte
	for i := 0; i < 8; i++ {
		v[i] = byte(m.Version >> (8 * (7 - i)))
	}
	h.Write(v[:])
	if len(tp.ID) > 0 {
		h.Write(tp.ID)
	} else {
		h.Write(tp.Blob)
	}
	return int(h.Sum64() % uint64(m.Count))
}

// Split partitions tuples by Route. The result always has Count
// entries (possibly empty), indexed by shard, with each part preserving
// the input order — so a split of an append batch is exactly the
// per-shard append order, which is what lets a client advance per-shard
// Merkle caps from its own leaf hashes.
func (m Map) Split(tuples []ph.EncryptedTuple) [][]ph.EncryptedTuple {
	n := m.Count
	if n < 1 {
		n = 1
	}
	parts := make([][]ph.EncryptedTuple, n)
	for _, tp := range tuples {
		s := m.Route(tp)
		parts[s] = append(parts[s], tp)
	}
	return parts
}
