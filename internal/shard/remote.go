package shard

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// Remote implements client.Cluster over one connection to a coordinator
// process (`phserver -coordinator`), speaking the ordinary commands the
// coordinator answers framed per shard, so per-shard sub-answers — and
// with them per-shard verifiability — survive the extra hop. The remote
// coordinator is exactly as untrusted as a single server: every
// sub-answer is held to the client's pinned root vector — by the
// VerifyCheck Remote runs on it, which is the client's own check — and
// Remote's own checks (map version echo, full shard coverage, ascending
// framing) only turn a lying coordinator into a loud failure instead of
// a wrong answer.
type Remote struct {
	reads
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
	rc := &Remote{conn: conn, m: m}
	rc.reads = rc.read
	return rc, nil
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

// Insert appends tuples through CmdInsert and expands the coordinator's
// RespInsertedShard acks (touched shards only) into the full per-shard
// vector.
func (rc *Remote) Insert(name string, tuples []ph.EncryptedTuple) ([]client.InsertAck, error) {
	resp, err := rc.conn.RoundTrip(wire.Frame{Type: wire.CmdInsert, Payload: wire.EncodeInsert(nil, name, tuples)})
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

// roundTripShard sends one read (CmdQuery or CmdFetchAll) and decodes
// the per-shard sub-answers, requiring the map version to match, every
// shard to answer (a verifying client cannot merge a partial scatter: a
// missing shard's matches would silently vanish) and every sub-answer to
// be of the kind asked for.
func (rc *Remote) roundTripShard(f wire.Frame, kind byte) ([]Sub, error) {
	resp, err := rc.conn.RoundTrip(f)
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespResultShard {
		return nil, fmt.Errorf("shard: unexpected response %#x to sharded read", resp.Type)
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
		if sub.Kind != kind {
			return nil, fmt.Errorf("shard %d answered kind %#x, want %#x", i, sub.Kind, kind)
		}
	}
	return subs, nil
}

// read is the remote scatter: one CmdQuery round trip; every shard's
// sub-answer must hold one answer per plan, in the shape asked for, and
// carries that shard's proofs and root for check to verify.
func (rc *Remote) read(name string, flags byte, plans [][]*ph.EncryptedQuery, check client.VerifyCheck) ([][]query.Response, error) {
	payload, err := query.EncodeRequest(nil, name, flags, plans)
	if err != nil {
		return nil, err
	}
	subs, err := rc.roundTripShard(wire.Frame{Type: wire.CmdQuery, Payload: payload}, KindRead)
	if err != nil {
		return nil, err
	}
	out := make([][]query.Response, len(subs))
	for i, sub := range subs {
		if sub.Flags != flags || len(sub.Reads) != len(plans) {
			return nil, fmt.Errorf("shard %d answered %d plans with flags %#x to a read of %d with flags %#x", i, len(sub.Reads), sub.Flags, len(plans), flags)
		}
		if err := checkAll(check, i, flags, sub.Reads); err != nil {
			return nil, err
		}
		out[i] = sub.Reads
	}
	return out, nil
}

// Fetch downloads every shard's partition through CmdFetchAll, framed
// per shard so the caller can rebuild per-shard Merkle caps.
func (rc *Remote) Fetch(name string) ([]*ph.EncryptedTable, error) {
	subs, err := rc.roundTripShard(wire.Frame{Type: wire.CmdFetchAll, Payload: wire.AppendString(nil, name)}, KindTable)
	if err != nil {
		return nil, err
	}
	out := make([]*ph.EncryptedTable, len(subs))
	for i, sub := range subs {
		out[i] = sub.Table
	}
	return out, nil
}

// Drop removes the table from every shard through the coordinator.
func (rc *Remote) Drop(name string) error {
	return rc.conn.Drop(name)
}
