package client

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// Sharded serving: a DB can replace its single connection with a
// Cluster — a scatter-gather tier that hash-partitions tuples over N
// independent phserver backends (internal/shard implements it, both as
// an in-process coordinator over per-shard connection pools and as a
// thin client of a remote `phserver -coordinator`). Nothing in the
// trust model changes: every shard is as untrusted as the single server
// was, the coordinator is just routing, and the client's anchor — the
// pinned vector a single server holds one entry of — has one Merkle root
// per shard, the root-of-roots: trusting the vector is trusting every
// shard's tree, each sub-answer verifies against its own entry, and one
// mutated tuple on one shard fails that entry (and with it the whole
// read) instead of poisoning the merge.

// VerifyCheck is the per-shard verification callback a cluster runs
// *inside* its read routing, so an in-process coordinator can treat a
// Byzantine answer exactly like a dead replica: quarantine the
// follower that produced it and retry the shard's read elsewhere. It
// is the DB's own check, so each sub-answer is verified once: the DB
// records, per shard index, the exact *VerifiedResult it passed, and
// after the scatter verifies every sub-answer that is not the one
// recorded for its own index — a cluster that skips the callback,
// checks another object than it returns, or checks under another
// shard's index hides nothing. A cluster must not modify an answer
// after passing it to the callback.
type VerifyCheck func(shard int, vr *authindex.VerifiedResult) error

// Cluster is the client-facing surface of a sharded serving tier. All
// reads scatter to every shard (search tokens are deliberately not
// routable — routing one would leak which partition a value hashes to
// beyond what result positions already reveal); answers come back one
// per shard, in shard order, for the caller to merge and verify. The
// five read methods are shapes of one scatter — a list of plans, each a
// conjunction of one or more selects, sent whole to every shard — and
// internal/shard implements them as such.
// Implementations must be safe for the DB's single-threaded use;
// internal/shard's coordinator is additionally safe for concurrent use.
type Cluster interface {
	// NumShards returns the partition map's shard count.
	NumShards() int
	// MapVersion returns the partition map's version stamp.
	MapVersion() uint64
	// Split partitions tuples with the cluster's deterministic
	// content-hash map; the result always has NumShards() entries. The
	// client uses it to know which leaves advance which shard's pinned
	// cap — it must agree with how Store/Insert place tuples.
	Split(tuples []ph.EncryptedTuple) [][]ph.EncryptedTuple
	// Store partitions the table and installs each part on its shard.
	Store(name string, t *ph.EncryptedTable) error
	// Insert partitions the tuples and appends each part through its
	// shard's group-commit write path, returning one placement ack per
	// shard (zero-valued, Count 0, for shards that received nothing).
	Insert(name string, tuples []ph.EncryptedTuple) ([]InsertAck, error)
	// Query scatters one select; answers are per shard, in shard order.
	Query(name string, q *ph.EncryptedQuery) ([]*ph.Result, error)
	// QueryBatch scatters several selects at once; answers are
	// [shard][query].
	QueryBatch(name string, qs []*ph.EncryptedQuery) ([][]*ph.Result, error)
	// QueryVerified scatters one verified select; check, when non-nil,
	// runs inside each shard's read routing (see VerifyCheck).
	QueryVerified(name string, q *ph.EncryptedQuery, check VerifyCheck) ([]*authindex.VerifiedResult, error)
	// QueryConj scatters one plan — a conjunction of one or more
	// selects — to every shard's selectivity-ordered planner, verified
	// (and checked) when asked. A conjunction distributes over a
	// disjoint partition: the answer is the union of the per-shard
	// intersections.
	QueryConj(name string, qs []*ph.EncryptedQuery, verified bool, check VerifyCheck) ([]*query.Response, error)
	// ExplainConj plans the conjunction on every shard (each against
	// its own sketch) and returns the merged summary.
	ExplainConj(name string, qs []*ph.EncryptedQuery) (*query.PlanInfo, error)
	// Fetch downloads every shard's partition, in shard order.
	Fetch(name string) ([]*ph.EncryptedTable, error)
	// Drop removes the table from every shard.
	Drop(name string) error
}

// NewShardedDB binds a scheme to a sharded serving tier and a remote
// table name. The DB behaves exactly like a single-server one — same
// queries, same verification discipline — with reads scattered to every
// shard and the trust anchor kept per shard.
func NewShardedDB(cl Cluster, scheme ph.Scheme, table string) *DB {
	return &DB{cluster: cl, scheme: scheme, table: table}
}

// Cluster returns the sharded serving tier behind the DB (nil for a
// single-server DB).
func (db *DB) Cluster() Cluster { return db.cluster }

// ShardRoots returns the pinned per-shard roots and tuple counts — the
// root-of-roots vector an application persists across restarts, and the
// only state it need persist (nil if none is pinned; a single server's
// vector is the one entry Root returns). Reinstall it with
// PinShardRoots.
func (db *DB) ShardRoots() (roots [][]byte, tuples []int) {
	for _, p := range db.pins {
		roots = append(roots, bytes.Clone(p.root))
		tuples = append(tuples, p.tuples)
	}
	return roots, tuples
}

// PinShardRoots installs a previously persisted root vector (one root
// and leaf count per shard; a single server's vector is its one root).
// Only the 32-byte anchors are installed: the caps behind them (see
// PinRoot) are rebuilt lazily from one fetch per shard — verified
// against these roots — by the first verified read or insert. Passing
// nil roots disables verification.
func (db *DB) PinShardRoots(roots [][]byte, tuples []int) error {
	if roots == nil {
		db.pins = nil
		return nil
	}
	if n := db.nodes(); len(roots) != n || len(tuples) != n {
		return fmt.Errorf("client: pinning %d roots / %d counts for %d shards", len(roots), len(tuples), n)
	}
	pins := make([]pin, len(roots))
	for i := range roots {
		pins[i] = newPin(bytes.Clone(roots[i]), tuples[i], nil)
	}
	db.pins = pins
	return nil
}

// readSharded is read's routing over a Cluster: answers come back as
// [shard][plan], every verified sub-answer held to its entry in the
// pinned vector exactly once. The Cluster surface still splits reads by
// shape, so the request is mapped onto it: unverified single-conjunct
// plans scatter together as one QueryBatch, anything else one QueryConj
// per plan (a select is its one-conjunct case; every shard's planner
// runs the plan against its own sketch, and because the partition is
// disjoint the answer is the union of the per-shard intersections). An
// explain is one plan, answered as a single node: the cluster's merged
// summary.
func (db *DB) readSharded(flags byte, tokens [][]*ph.EncryptedQuery) ([][]query.Response, error) {
	if flags == wire.ReadFlagExplain {
		info, err := db.cluster.ExplainConj(db.table, tokens[0])
		if err != nil {
			return nil, err
		}
		return [][]query.Response{{{Plan: info}}}, nil
	}
	n := db.cluster.NumShards()
	verified := flags == wire.ReadFlagVerified
	if verified && len(db.pins) != n {
		return nil, fmt.Errorf("client: sharded verified read with %d pinned roots for %d shards (CreateTable or PinShardRoots first)", len(db.pins), n)
	}
	batch := !verified && len(tokens) > 1
	for _, qs := range tokens {
		batch = batch && len(qs) == 1
	}
	out := make([][]query.Response, n)
	for i := range out {
		out[i] = make([]query.Response, len(tokens))
	}
	if batch {
		flat := make([]*ph.EncryptedQuery, len(tokens))
		for j, qs := range tokens {
			flat[j] = qs[0]
		}
		perShard, err := db.cluster.QueryBatch(db.table, flat)
		if err != nil {
			return nil, err
		}
		if len(perShard) != len(out) {
			return nil, fmt.Errorf("client: scatter answered by %d shards, map has %d", len(perShard), len(out))
		}
		for i, rs := range perShard {
			if len(rs) != len(flat) {
				return nil, fmt.Errorf("client: shard %d answered %d batch results for %d queries", i, len(rs), len(flat))
			}
			for j, res := range rs {
				out[i][j].Result = res
			}
		}
	} else {
		for j, qs := range tokens {
			var check VerifyCheck
			var passed func(shard int, vr *authindex.VerifiedResult) bool
			if verified {
				check, passed = db.scatterCheck(n)
			}
			resps, err := db.cluster.QueryConj(db.table, qs, verified, check)
			if err != nil {
				return nil, err
			}
			if len(resps) != len(out) {
				return nil, fmt.Errorf("client: scatter answered by %d shards, map has %d", len(resps), len(out))
			}
			for i, resp := range resps {
				if resp == nil {
					return nil, fmt.Errorf("client: shard %d answered nothing", i)
				}
				if verified && !passed(i, resp.Verified) {
					if err := db.check(i, resp.Verified); err != nil {
						return nil, fmt.Errorf("client: %w", err)
					}
				}
				out[i][j] = *resp
			}
		}
	}
	for i, resps := range out {
		for _, resp := range resps {
			if resp.Matches() == nil || verified != (resp.Verified != nil) {
				return nil, fmt.Errorf("client: shard %d answered without a result, or without the proofs asked for", i)
			}
		}
	}
	return out, nil
}

// scatterCheck binds db.check to one scatter as its VerifyCheck, which
// records per shard index the exact answer it passed; passed reports
// whether vr is that answer for the shard (see VerifyCheck).
func (db *DB) scatterCheck(shards int) (check VerifyCheck, passed func(shard int, vr *authindex.VerifiedResult) bool) {
	var mu sync.Mutex
	checked := make([]*authindex.VerifiedResult, shards)
	check = func(shard int, vr *authindex.VerifiedResult) error {
		if err := db.check(shard, vr); err != nil {
			return err
		}
		mu.Lock()
		checked[shard] = vr
		mu.Unlock()
		return nil
	}
	passed = func(shard int, vr *authindex.VerifiedResult) bool {
		mu.Lock()
		defer mu.Unlock()
		return vr != nil && checked[shard] == vr
	}
	return check, passed
}
