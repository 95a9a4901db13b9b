package bench

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/storage"
)

// e20Shards is the sharded tier's partition count; e20Codes is how
// many distinct codes the equivalence sweep selects.
const (
	e20Shards = 4
	e20Codes  = 20
)

// RunE20 regenerates experiment E20: the scatter-gather sharded serving
// tier. The same encrypted table is served two ways — by one
// single-process oracle node, and hash-partitioned over four shard
// nodes behind a shard.Coordinator — and verified reads against both
// are compared. Every gate is a count:
//
//   - every sharded answer bit-identical to the oracle's (and to a
//     plaintext evaluation) across a sweep of codes;
//   - the Byzantine-shard drill: a follower serving a tampered copy of
//     one shard's partition is detected by the pinned root vector
//     *inside* that shard's read routing and quarantined while every
//     read keeps succeeding with oracle-identical answers; then a
//     tampered shard *primary* (no honest node left for that shard)
//     must fail the whole read — one mutated tuple on one shard cannot
//     poison the merge.
//
// That the scatter reaches the shards concurrently is pinned by
// internal/shard's TestScatterRunsShardsConcurrently, not timed here.
func RunE20(tuples int, seed int64) (*Table, error) {
	if tuples <= 0 {
		tuples = 2000
	}
	t := &Table{
		ID:     "E20",
		Title:  fmt.Sprintf("sharded scatter-gather: verified reads vs a single-process oracle (table: %d tuples, %d shards)", tuples, e20Shards),
		Header: []string{"phase", "sharded reads", "oracle-identical", "refused", "replica failures"},
		Notes: []string{
			"every read is verified: the oracle client pins one root, the sharded client pins a per-shard root vector (root-of-roots) and checks each sub-answer",
			"every sweep read selects a different code, so neither side answers from a warm result",
		},
	}

	// Dataset, scheme, plaintext truth for every code.
	table, err := e17Table(tuples, seed)
	if err != nil {
		return nil, err
	}
	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	scheme, err := core.New(key, table.Schema(), core.Options{})
	if err != nil {
		return nil, err
	}
	codes := make([]string, e20Codes)
	want := make(map[string]string, len(codes))
	for i := range codes {
		codes[i] = fmt.Sprintf("c%03d", i)
		plain, err := relation.Select(table, relation.Eq{Column: "code", Value: relation.String(codes[i])})
		if err != nil {
			return nil, err
		}
		want[codes[i]] = plain.Sorted().String()
	}

	// The oracle: one node holding the whole table.
	onode, err := startNode(storage.NewMemory(), false)
	if err != nil {
		return nil, err
	}
	defer onode.kill()
	oconn, err := client.DialWithConfig(onode.addr, e18Dial())
	if err != nil {
		return nil, err
	}
	defer oconn.Close()
	odb := client.NewDB(oconn, scheme, "pairs")
	if err := odb.CreateTable(table); err != nil {
		return nil, err
	}

	// The sharded tier: four nodes, one coordinator scattering over them.
	stores := make([]*storage.Store, e20Shards)
	shardsCfg := &client.ShardsConfig{Version: 1}
	for i := range stores {
		stores[i] = storage.NewMemory()
		n, err := startNode(stores[i], false)
		if err != nil {
			return nil, err
		}
		defer n.kill()
		shardsCfg.Shards = append(shardsCfg.Shards, client.ShardConfig{Addr: n.addr})
	}
	seedCo, err := shard.FromConfig(shardsCfg, e18Dial())
	if err != nil {
		return nil, err
	}
	defer seedCo.Close()
	sdb := client.NewShardedDB(seedCo, scheme, "pairs")
	if err := sdb.CreateTable(table); err != nil {
		return nil, err
	}

	// Bit-identical equivalence sweep: oracle vs sharded vs plaintext.
	oracleAnswer := func(code string) (string, error) {
		got, err := odb.Select(relation.Eq{Column: "code", Value: relation.String(code)})
		if err != nil {
			return "", err
		}
		return got.Sorted().String(), nil
	}
	for _, code := range codes {
		ostr, err := oracleAnswer(code)
		if err != nil {
			return nil, fmt.Errorf("bench: e20 oracle %s: %w", code, err)
		}
		got, err := sdb.Select(relation.Eq{Column: "code", Value: relation.String(code)})
		if err != nil {
			return nil, fmt.Errorf("bench: e20 sharded %s: %w", code, err)
		}
		if got.Sorted().String() != ostr || ostr != want[code] {
			return nil, fmt.Errorf("bench: e20: sharded answer for %s differs from the oracle's", code)
		}
	}
	t.AddRow("equivalence sweep", fmt.Sprintf("%d", len(codes)), fmt.Sprintf("%d", len(codes)), "0", "0")
	t.Notes = append(t.Notes, fmt.Sprintf("equivalence sweep passed: %d codes, sharded == oracle == plaintext, bit-identical", len(codes)))

	// Byzantine-shard drill, part 1: a follower on one shard serves a
	// tampered copy of that shard's partition. The pinned root vector
	// fails it inside the shard's read routing; the pool quarantines the
	// follower and retries the shard primary, so every read still
	// succeeds and still matches the oracle.
	evilShard := -1
	for i, st := range stores {
		ct, err := st.Get("pairs")
		if err != nil {
			return nil, err
		}
		if len(ct.Tuples) == 0 {
			continue
		}
		mutated := ct.Clone()
		mutated.Tuples[0].ID[0] ^= 0xFF
		evil := storage.NewMemory()
		if err := evil.Put("pairs", mutated); err != nil {
			return nil, err
		}
		enode, err := startNode(evil, true)
		if err != nil {
			return nil, err
		}
		defer enode.kill()
		if err := seedCo.AddShardReplicas(i, e18Dial(), enode.addr); err != nil {
			return nil, err
		}
		evilShard = i
		break
	}
	if evilShard < 0 {
		return nil, fmt.Errorf("bench: e20: every shard partition is empty")
	}
	for i := 0; i < 4; i++ {
		code := codes[i]
		ostr, err := oracleAnswer(code)
		if err != nil {
			return nil, err
		}
		got, err := sdb.Select(relation.Eq{Column: "code", Value: relation.String(code)})
		if err != nil {
			return nil, fmt.Errorf("bench: e20 byzantine-follower drill: %w", err)
		}
		if got.Sorted().String() != ostr {
			return nil, fmt.Errorf("bench: e20 byzantine-follower drill: answer differs from the oracle's")
		}
	}
	stats := seedCo.ShardStats()
	if stats[evilShard].ReplicaFailures == 0 {
		return nil, fmt.Errorf("bench: e20: tampered follower on shard %d was never rejected (stats %+v)", evilShard, stats[evilShard])
	}
	t.AddRow("Byzantine-follower drill", "4", "4", "0", fmt.Sprintf("%d", stats[evilShard].ReplicaFailures))
	t.Notes = append(t.Notes, fmt.Sprintf("Byzantine-follower drill passed: a tampered replica on shard %d failed root-vector verification, was quarantined, and every read stayed bit-identical to the oracle", evilShard))

	// Part 2: the shard *primary* itself turns Byzantine — no honest
	// node is left for that shard, so the read must fail outright
	// rather than merge three honest partitions with one forged one.
	honest, err := stores[evilShard].Get("pairs")
	if err != nil {
		return nil, err
	}
	mutated := honest.Clone()
	mutated.Tuples[0].ID[0] ^= 0xFF
	if err := stores[evilShard].Put("pairs", mutated); err != nil {
		return nil, err
	}
	if _, err := sdb.Select(relation.Eq{Column: "code", Value: relation.String(codes[0])}); err == nil {
		return nil, fmt.Errorf("bench: e20: a read over a tampered shard primary succeeded")
	}
	// Restore the partition: the surviving tier serves again.
	if err := stores[evilShard].Put("pairs", honest); err != nil {
		return nil, err
	}
	ostr, err := oracleAnswer(codes[0])
	if err != nil {
		return nil, err
	}
	got, err := sdb.Select(relation.Eq{Column: "code", Value: relation.String(codes[0])})
	if err != nil {
		return nil, fmt.Errorf("bench: e20 post-restore read: %w", err)
	}
	if got.Sorted().String() != ostr {
		return nil, fmt.Errorf("bench: e20 post-restore read: answer differs from the oracle's")
	}
	t.AddRow("Byzantine-primary drill", "2", "1", "1", "0")
	t.Notes = append(t.Notes,
		"Byzantine-primary drill passed: one flipped ciphertext byte on one shard failed the whole read (no silent partial merge); restoring the partition restored bit-identical service")
	return t, nil
}
