package shard

import (
	"fmt"

	"repro/internal/authindex"
	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// Remote implements client.Cluster over one connection to a coordinator
// process (`phserver -coordinator`), speaking the shard-framed commands
// so per-shard sub-answers — and with them per-shard verifiability —
// survive the extra hop. The remote coordinator is exactly as untrusted
// as a single server: the client re-verifies every sub-answer against
// its pinned root vector, and Remote's own checks (map version echo,
// full shard coverage, ascending framing) only turn a lying coordinator
// into a loud failure instead of a wrong answer.
type Remote struct {
	conn *client.Conn
	m    Map
}

// NewRemote wraps a connection to a coordinator whose partition map the
// client knows (from its shards config). The map version is checked
// against every response's echo, so a stale client config fails loudly.
func NewRemote(conn *client.Conn, m Map) (*Remote, error) {
	if m.Count < 1 {
		return nil, fmt.Errorf("shard: partition map must have at least 1 shard, got %d", m.Count)
	}
	return &Remote{conn: conn, m: m}, nil
}

// NumShards returns the partition map's shard count.
func (rc *Remote) NumShards() int { return rc.m.Count }

// MapVersion returns the partition map's version stamp.
func (rc *Remote) MapVersion() uint64 { return rc.m.Version }

// Split partitions tuples with the client-side copy of the map.
func (rc *Remote) Split(tuples []ph.EncryptedTuple) [][]ph.EncryptedTuple {
	return rc.m.Split(tuples)
}

// Store uploads the table through the coordinator's CmdStore (the
// coordinator partitions it server-side with the same map).
func (rc *Remote) Store(name string, t *ph.EncryptedTable) error {
	return rc.conn.Store(name, t)
}

// Insert appends tuples through CmdShardInsert and expands the wire
// acks (touched shards only) into the full per-shard vector.
func (rc *Remote) Insert(name string, tuples []ph.EncryptedTuple) ([]client.InsertAck, error) {
	payload := wire.AppendString(nil, name)
	payload = wire.AppendU32(payload, uint32(len(tuples)))
	for _, tp := range tuples {
		payload = wire.EncodeTuple(payload, tp)
	}
	resp, err := rc.conn.RoundTrip(wire.Frame{Type: wire.CmdShardInsert, Payload: payload})
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespInsertedShard {
		return nil, fmt.Errorf("shard: unexpected response %#x to sharded insert", resp.Type)
	}
	mapVersion, wireAcks, err := DecodeAcks(resp.Payload, rc.m.Count)
	if err != nil {
		return nil, err
	}
	if mapVersion != rc.m.Version {
		return nil, fmt.Errorf("shard: coordinator is on partition map %d, client config says %d — refresh the shards config", mapVersion, rc.m.Version)
	}
	acks := make([]client.InsertAck, rc.m.Count)
	for _, a := range wireAcks {
		acks[a.Shard] = client.InsertAck{Base: a.Base, Count: a.Count, Version: a.Version}
	}
	return acks, nil
}

// roundTripShard sends one shard-framed read and decodes the per-shard
// sub-answers, requiring the map version to match and — for query reads
// — every shard to answer (a verifying client cannot merge a partial
// scatter: a missing shard's matches would silently vanish).
func (rc *Remote) roundTripShard(name string, flags byte, qs []*ph.EncryptedQuery) ([]Sub, error) {
	resp, err := rc.conn.RoundTrip(wire.Frame{Type: wire.CmdShardQuery, Payload: EncodeQueryRequest(nil, name, flags, qs)})
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespResultShard {
		return nil, fmt.Errorf("shard: unexpected response %#x to sharded query", resp.Type)
	}
	mapVersion, subs, err := DecodeResponse(resp.Payload, rc.m.Count)
	if err != nil {
		return nil, err
	}
	if mapVersion != rc.m.Version {
		return nil, fmt.Errorf("shard: coordinator is on partition map %d, client config says %d — refresh the shards config", mapVersion, rc.m.Version)
	}
	if len(subs) != rc.m.Count {
		return nil, fmt.Errorf("shard: %d of %d shards answered", len(subs), rc.m.Count)
	}
	for i, sub := range subs {
		if sub.Shard != i {
			return nil, fmt.Errorf("shard: sub-answer %d claims shard %d", i, sub.Shard)
		}
	}
	return subs, nil
}

// Query scatters one query through the coordinator.
func (rc *Remote) Query(name string, q *ph.EncryptedQuery) ([]*ph.Result, error) {
	subs, err := rc.roundTripShard(name, 0, []*ph.EncryptedQuery{q})
	if err != nil {
		return nil, err
	}
	out := make([]*ph.Result, len(subs))
	for i, sub := range subs {
		if sub.Kind != KindResults || len(sub.Results) != 1 {
			return nil, fmt.Errorf("shard %d answered kind %#x with %d results to a single query", i, sub.Kind, len(sub.Results))
		}
		out[i] = sub.Results[0]
	}
	return out, nil
}

// QueryBatch scatters a query batch through the coordinator.
func (rc *Remote) QueryBatch(name string, qs []*ph.EncryptedQuery) ([][]*ph.Result, error) {
	subs, err := rc.roundTripShard(name, 0, qs)
	if err != nil {
		return nil, err
	}
	out := make([][]*ph.Result, len(subs))
	for i, sub := range subs {
		if sub.Kind != KindResults || len(sub.Results) != len(qs) {
			return nil, fmt.Errorf("shard %d answered kind %#x with %d results to a %d-query batch", i, sub.Kind, len(sub.Results), len(qs))
		}
		out[i] = sub.Results
	}
	return out, nil
}

// QueryVerified scatters one verified query; each shard's sub-answer
// carries that shard's proofs and root for the caller to check.
func (rc *Remote) QueryVerified(name string, q *ph.EncryptedQuery, check client.VerifyCheck) ([]*authindex.VerifiedResult, error) {
	subs, err := rc.roundTripShard(name, wire.ShardFlagVerified, []*ph.EncryptedQuery{q})
	if err != nil {
		return nil, err
	}
	out := make([]*authindex.VerifiedResult, len(subs))
	for i, sub := range subs {
		if sub.Kind != KindVerified || len(sub.Verified) != 1 {
			return nil, fmt.Errorf("shard %d answered kind %#x with %d verified results to a single query", i, sub.Kind, len(sub.Verified))
		}
		if check != nil {
			if err := check(i, sub.Verified[0]); err != nil {
				return nil, err
			}
		}
		out[i] = sub.Verified[0]
	}
	return out, nil
}

// QueryConj scatters one conjunction through the coordinator.
func (rc *Remote) QueryConj(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
	flags := wire.ShardFlagConj
	if verified {
		flags |= wire.ShardFlagVerified
	}
	subs, err := rc.roundTripShard(name, flags, qs)
	if err != nil {
		return nil, err
	}
	out := make([]*query.Response, len(subs))
	for i, sub := range subs {
		if sub.Kind != KindConj || sub.Conj == nil {
			return nil, fmt.Errorf("shard %d answered kind %#x to a conjunction", i, sub.Kind)
		}
		if verified {
			if sub.Conj.Verified == nil {
				return nil, fmt.Errorf("shard %d answered a verified conjunction without proofs", i)
			}
			if check != nil {
				if err := check(i, sub.Conj.Verified); err != nil {
					return nil, err
				}
			}
		}
		out[i] = sub.Conj
	}
	return out, nil
}

// ExplainConj asks the coordinator for the merged per-shard plan
// (CmdQueryConj with the explain flag; the coordinator scatters and
// merges).
func (rc *Remote) ExplainConj(name string, qs []*ph.EncryptedQuery) (*query.PlanInfo, error) {
	return rc.conn.ExplainConj(name, qs)
}

// Fetch downloads every shard's partition, framed per shard so the
// caller can rebuild per-shard Merkle frontiers.
func (rc *Remote) Fetch(name string) ([]*ph.EncryptedTable, error) {
	subs, err := rc.roundTripShard(name, wire.ShardFlagFetch, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*ph.EncryptedTable, len(subs))
	for i, sub := range subs {
		if sub.Kind != KindTable || sub.Table == nil {
			return nil, fmt.Errorf("shard %d answered kind %#x to a fetch", i, sub.Kind)
		}
		out[i] = sub.Table
	}
	return out, nil
}

// Drop removes the table from every shard through the coordinator.
func (rc *Remote) Drop(name string) error {
	return rc.conn.Drop(name)
}
