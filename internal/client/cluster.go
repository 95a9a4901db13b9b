package client

import (
	"bytes"
	"fmt"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Sharded serving: a DB can replace its single connection with a
// Cluster — a scatter-gather tier that hash-partitions tuples over N
// independent phserver backends (internal/shard implements it, both as
// an in-process coordinator over per-shard connection pools and as a
// thin client of a remote `phserver -coordinator`). Nothing in the
// trust model changes: every shard is as untrusted as the single server
// was, the coordinator is just routing, and the client's anchor becomes
// a *vector* of per-shard Merkle roots — the root-of-roots: trusting
// the vector is trusting every shard's tree, each sub-answer verifies
// against its own entry, and one mutated tuple on one shard fails that
// entry (and with it the whole read) instead of poisoning the merge.

// VerifyCheck is the per-shard verification callback a cluster runs
// *inside* its read routing, so an in-process coordinator can treat a
// Byzantine answer exactly like a dead replica: quarantine the
// follower that produced it and retry the shard's read elsewhere. It
// is an optimisation hook, not the trust boundary — the DB re-verifies
// every sub-answer against its pinned vector after the scatter returns,
// so a cluster that skips the callback can hide nothing.
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
	// frontier — it must agree with how Store/Insert place tuples.
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

// shardPin is one entry of the pinned root vector: shard i's
// authenticated-index anchor, and (when available) the Merkle frontier
// behind it so the client's own inserts advance it locally.
type shardPin struct {
	root     []byte
	tuples   int
	version  uint64
	frontier *authindex.Frontier
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

// pinned reports whether verification is enabled: a single pinned root,
// or (sharded) a pinned root vector.
func (db *DB) pinned() bool { return db.root != nil || len(db.pins) > 0 }

// ShardRoots returns the pinned per-shard roots and tuple counts — the
// root-of-roots vector an application persists across restarts (nil if
// none is pinned). Reinstall it with PinShardRoots.
func (db *DB) ShardRoots() (roots [][]byte, tuples []int) {
	for _, p := range db.pins {
		roots = append(roots, append([]byte(nil), p.root...))
		tuples = append(tuples, p.tuples)
	}
	return roots, tuples
}

// PinShardRoots installs a previously persisted root vector (one root
// and leaf count per shard). Only the anchors are installed: the
// frontiers behind them are rebuilt lazily — verified against these
// roots — by the first insert that needs them. Passing nil roots
// disables verification.
func (db *DB) PinShardRoots(roots [][]byte, tuples []int) error {
	if db.cluster == nil {
		return fmt.Errorf("client: PinShardRoots on a non-sharded DB (use PinRoot)")
	}
	if roots == nil {
		db.pins = nil
		return nil
	}
	if len(roots) != db.cluster.NumShards() || len(tuples) != len(roots) {
		return fmt.Errorf("client: pinning %d roots / %d counts for %d shards", len(roots), len(tuples), db.cluster.NumShards())
	}
	pins := make([]shardPin, len(roots))
	for i := range roots {
		pins[i] = shardPin{root: append([]byte(nil), roots[i]...), tuples: tuples[i]}
	}
	db.pins = pins
	return nil
}

// checkShard is the VerifyCheck bound to the DB's pinned vector.
func (db *DB) checkShard(shard int, vr *authindex.VerifiedResult) error {
	if shard < 0 || shard >= len(db.pins) {
		return fmt.Errorf("client: verified answer from shard %d, pinned vector covers %d", shard, len(db.pins))
	}
	if err := checkVerifiedAgainst(db.pins[shard].root, db.pins[shard].tuples, vr); err != nil {
		return fmt.Errorf("shard %d: %w", shard, err)
	}
	return nil
}

// createTableSharded uploads the encrypted table through the cluster
// and pins one root per shard, computed locally from the same
// deterministic partition the cluster stores by.
func (db *DB) createTableSharded(ct *ph.EncryptedTable) error {
	if err := db.cluster.Store(db.table, ct); err != nil {
		return err
	}
	parts := db.cluster.Split(ct.Tuples)
	pins := make([]shardPin, len(parts))
	for i, part := range parts {
		f := authindex.NewFrontier()
		for _, tp := range part {
			f.AppendTuple(tp)
		}
		pins[i] = shardPin{root: f.Root(), tuples: f.Count(), frontier: f}
	}
	db.pins = pins
	db.root, db.rootTuples, db.rootVersion, db.frontier = nil, 0, 0, nil
	return nil
}

// ensureShardFrontiers makes the frontier behind every pinned shard
// root available, rebuilding missing ones from a fetch that is verified
// against the pinned vector (the sharded ensureFrontier).
func (db *DB) ensureShardFrontiers() error {
	missing := false
	for i := range db.pins {
		if db.pins[i].frontier == nil {
			missing = true
			break
		}
	}
	if !missing {
		return nil
	}
	parts, err := db.cluster.Fetch(db.table)
	if err != nil {
		return err
	}
	if len(parts) != len(db.pins) {
		return fmt.Errorf("client: fetched %d shard partitions, pinned vector covers %d", len(parts), len(db.pins))
	}
	fs := make([]*authindex.Frontier, len(parts))
	for i, part := range parts {
		f := authindex.FrontierOf(part)
		if !bytes.Equal(f.Root(), db.pins[i].root) || f.Count() != db.pins[i].tuples {
			return fmt.Errorf("client: shard %d does not match its pinned root (%d tuples fetched, %d pinned) — verification failed; RepinRoot only if the mismatch is expected", i, f.Count(), db.pins[i].tuples)
		}
		fs[i] = f
	}
	for i := range db.pins {
		db.pins[i].frontier = fs[i]
	}
	return nil
}

// repinShardRoots re-pins the whole root vector from a full fetch,
// trusting the fetched ciphertext exactly as RepinRoot does on a single
// server — the explicit recovery path after acknowledged external
// writes.
func (db *DB) repinShardRoots() error {
	parts, err := db.cluster.Fetch(db.table)
	if err != nil {
		return err
	}
	pins := make([]shardPin, len(parts))
	for i, part := range parts {
		f := authindex.FrontierOf(part)
		pins[i] = shardPin{root: f.Root(), tuples: f.Count(), frontier: f}
	}
	db.pins = pins
	return nil
}

// insertSharded appends encrypted tuples through the cluster. With a
// pinned vector, each shard's placement ack advances that shard's
// frontier from the client's own leaf hashes — the per-shard analogue
// of advanceRoot, validated across all shards before any pin moves so a
// partial mismatch never leaves the vector half-advanced.
func (db *DB) insertSharded(tuples []ph.EncryptedTuple) error {
	if len(db.pins) == 0 {
		_, err := db.cluster.Insert(db.table, tuples)
		return err
	}
	if err := db.ensureShardFrontiers(); err != nil {
		return err
	}
	acks, err := db.cluster.Insert(db.table, tuples)
	if err != nil {
		return err
	}
	parts := db.cluster.Split(tuples)
	if len(acks) != len(db.pins) || len(parts) != len(db.pins) {
		return fmt.Errorf("client: insert acked by %d shards over %d parts, pinned vector covers %d — call RepinRoot to resync", len(acks), len(parts), len(db.pins))
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if acks[i].Count != len(part) {
			return fmt.Errorf("client: shard %d acked %d tuples for a %d-tuple part — call RepinRoot to resync", i, acks[i].Count, len(part))
		}
		if acks[i].Base != db.pins[i].frontier.Count() {
			return fmt.Errorf("client: shard %d insert landed at tuple %d but its pinned root covers %d — concurrent external writes; call RepinRoot to resync", i, acks[i].Base, db.pins[i].frontier.Count())
		}
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		for _, tp := range part {
			db.pins[i].frontier.AppendTuple(tp)
		}
		db.pins[i].root = db.pins[i].frontier.Root()
		db.pins[i].tuples = db.pins[i].frontier.Count()
		db.pins[i].version = acks[i].Version
	}
	return nil
}

// union appends every tuple of src to dst.
func union(dst, src *relation.Table) error {
	for _, tp := range src.Tuples() {
		if err := dst.Insert(tp); err != nil {
			return err
		}
	}
	return nil
}

// readSharded is read's routing over a Cluster: answers come back as
// [shard][plan], every verified sub-answer checked against its entry in
// the pinned vector — authoritatively, whatever the cluster ran through
// the VerifyCheck callback. The Cluster surface still splits reads by
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
	verified := flags == wire.ReadFlagVerified
	var check VerifyCheck
	if verified {
		if len(db.pins) == 0 {
			return nil, fmt.Errorf("client: sharded verified read without a pinned root vector (CreateTable or PinShardRoots first)")
		}
		check = db.checkShard
	}
	batch := !verified && len(tokens) > 1
	for _, qs := range tokens {
		batch = batch && len(qs) == 1
	}
	out := make([][]query.Response, db.cluster.NumShards())
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
				out[i][j] = *resp
			}
		}
	}
	for i, resps := range out {
		for _, resp := range resps {
			if resp.Matches() == nil || verified != (resp.Verified != nil) {
				return nil, fmt.Errorf("client: shard %d answered without a result, or without the proofs asked for", i)
			}
			if verified {
				if err := db.checkShard(i, resp.Verified); err != nil {
					return nil, fmt.Errorf("client: %w", err)
				}
				db.pins[i].version = resp.Verified.Version
			}
		}
	}
	return out, nil
}

// selectAllSharded downloads every shard's partition and decrypts the
// concatenation.
func (db *DB) selectAllSharded() (*relation.Table, error) {
	parts, err := db.cluster.Fetch(db.table)
	if err != nil {
		return nil, err
	}
	out := relation.NewTable(db.scheme.Schema())
	for _, part := range parts {
		t, err := db.scheme.DecryptTable(part)
		if err != nil {
			return nil, err
		}
		if err := union(out, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}
