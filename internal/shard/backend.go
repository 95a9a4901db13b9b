package shard

import (
	"fmt"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// server.Backend implementation: a Coordinator behind server.NewProxy is
// `phserver -coordinator` — one listener speaking the ordinary wire
// protocol, scattering every command over its shards.
//
// Two tiers of service:
//
//   - The shard-framed commands (CmdShardQuery / CmdShardInsert) are the
//     native surface: per-shard sub-answers framed by shard id, which is
//     what a verifying client needs to check each against its pinned
//     root vector.
//   - The single-server commands work unchanged for unverified
//     clients: the coordinator scatters them and merges the answers into
//     the single-server shape. Merged results renumber positions
//     synthetically (merge order) — real coordinates are (shard, offset)
//     pairs that the merged shape cannot carry — which is sound only
//     because nothing verifies against them; the verified single-server
//     commands (CmdQueryVerified, verified conjunctions) are therefore
//     *refused* with an error naming the shard-framed alternative,
//     rather than answered with proofs that could never verify.
func (co *Coordinator) Sync() error { return nil }

// HandleFrame serves one command frame against the sharded cluster.
func (co *Coordinator) HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error) {
	r := wire.NewBuffer(f.Payload)
	switch f.Type {
	case wire.CmdShardQuery:
		name, flags, qs, err := DecodeQueryRequest(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		subs, err := co.serveShardQuery(name, flags, qs)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespResultShard, Payload: EncodeResponse(scratch, co.m.Version, subs)}, nil

	case wire.CmdShardInsert:
		name, tuples, err := decodeInsert(r)
		if err != nil {
			return wire.Frame{}, err
		}
		acks, err := co.Insert(name, tuples)
		if err != nil {
			return wire.Frame{}, err
		}
		wireAcks := make([]Ack, 0, len(acks))
		for i, a := range acks {
			if a.Count == 0 {
				continue
			}
			wireAcks = append(wireAcks, Ack{Shard: i, Base: a.Base, Count: a.Count, Version: a.Version})
		}
		return wire.Frame{Type: wire.RespInsertedShard, Payload: EncodeAcks(scratch, co.m.Version, wireAcks)}, nil

	case wire.CmdStore:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		t, err := wire.DecodeTable(r)
		if err != nil {
			return wire.Frame{}, err
		}
		if err := co.Store(name, t); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdInsert:
		name, tuples, err := decodeInsert(r)
		if err != nil {
			return wire.Frame{}, err
		}
		if _, err := co.Insert(name, tuples); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdQuery:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		q, err := wire.DecodeQuery(r)
		if err != nil {
			return wire.Frame{}, err
		}
		results, err := co.Query(name, q)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespResult, Payload: wire.EncodeResult(scratch, mergeResults(results))}, nil

	case wire.CmdQueryBatch:
		name, _, qs, err := DecodeQueryRequest(padBatchFlags(f.Payload))
		if err != nil {
			return wire.Frame{}, err
		}
		perShard, err := co.QueryBatch(name, qs)
		if err != nil {
			return wire.Frame{}, err
		}
		payload := wire.AppendU32(scratch, uint32(len(qs)))
		for j := range qs {
			column := make([]*ph.Result, 0, len(perShard))
			for i, rs := range perShard {
				if len(rs) != len(qs) {
					return wire.Frame{}, fmt.Errorf("shard %d answered %d batch results for %d queries", i, len(rs), len(qs))
				}
				column = append(column, rs[j])
			}
			payload = wire.EncodeResult(payload, mergeResults(column))
		}
		return wire.Frame{Type: wire.RespResults, Payload: payload}, nil

	case wire.CmdQueryConj:
		name, flags, qs, err := DecodeQueryRequest(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		if flags&wire.ConjFlagVerified != 0 {
			return wire.Frame{}, fmt.Errorf("coordinator: merged verified conjunctions cannot carry per-shard proofs; use CmdShardQuery with ShardFlagConj|ShardFlagVerified")
		}
		if flags&wire.ConjFlagExplain != 0 {
			plan, err := co.ExplainConj(name, qs)
			if err != nil {
				return wire.Frame{}, err
			}
			return wire.Frame{Type: wire.RespResultConj, Payload: query.EncodeResponse(scratch, &query.Response{Plan: plan})}, nil
		}
		resps, err := co.QueryConj(name, qs, false, nil)
		if err != nil {
			return wire.Frame{}, err
		}
		plans := make([]*query.PlanInfo, len(resps))
		results := make([]*ph.Result, len(resps))
		for i, resp := range resps {
			if resp == nil || resp.Result == nil {
				return wire.Frame{}, fmt.Errorf("shard %d answered a conjunction without a result", i)
			}
			plans[i], results[i] = resp.Plan, resp.Result
		}
		merged := &query.Response{Plan: query.MergePlans(plans), Result: mergeResults(results)}
		return wire.Frame{Type: wire.RespResultConj, Payload: query.EncodeResponse(scratch, merged)}, nil

	case wire.CmdFetchAll:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		parts, err := co.Fetch(name)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespTable, Payload: wire.EncodeTable(scratch, mergeTables(parts))}, nil

	case wire.CmdDrop:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		if err := co.Drop(name); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdList:
		infos, err := co.List()
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespList, Payload: wire.EncodeList(scratch, infos)}, nil

	case wire.CmdInsertStamped:
		return wire.Frame{}, fmt.Errorf("coordinator: a single placement ack cannot describe a sharded append; use CmdShardInsert for per-shard acks")

	case wire.CmdQueryVerified:
		return wire.Frame{}, fmt.Errorf("coordinator: each shard keeps its own authenticated index; use CmdShardQuery with ShardFlagVerified and verify against the per-shard root vector")

	case wire.CmdShipLog, wire.CmdShipSnapshot:
		return wire.Frame{}, fmt.Errorf("coordinator: replication is per shard; point followers at the shard primaries, not the coordinator")

	default:
		return wire.Frame{}, fmt.Errorf("coordinator: unknown command %#x", f.Type)
	}
}

// serveShardQuery evaluates one shard-framed read and returns every
// shard's sub-answer, in shard order.
func (co *Coordinator) serveShardQuery(name string, flags byte, qs []*ph.EncryptedQuery) ([]Sub, error) {
	switch {
	case flags&wire.ShardFlagFetch != 0:
		if len(qs) != 0 {
			return nil, fmt.Errorf("coordinator: fetch request carries %d queries", len(qs))
		}
		parts, err := co.Fetch(name)
		if err != nil {
			return nil, err
		}
		subs := make([]Sub, len(parts))
		for i, t := range parts {
			subs[i] = Sub{Shard: i, Kind: KindTable, Table: t}
		}
		return subs, nil

	case flags&wire.ShardFlagConj != 0:
		// The coordinator cannot verify (it holds no roots); it relays
		// proofs for the client to check, so no VerifyCheck is passed.
		resps, err := co.QueryConj(name, qs, flags&wire.ShardFlagVerified != 0, nil)
		if err != nil {
			return nil, err
		}
		subs := make([]Sub, len(resps))
		for i, resp := range resps {
			subs[i] = Sub{Shard: i, Kind: KindConj, Conj: resp}
		}
		return subs, nil

	case flags&wire.ShardFlagVerified != 0:
		subs := make([]Sub, co.m.Count)
		for i := range subs {
			subs[i] = Sub{Shard: i, Kind: KindVerified, Verified: make([]*authindex.VerifiedResult, len(qs))}
		}
		// One scatter per query keeps each query's per-shard answers
		// aligned; queries in a batch are few (a statement's predicates).
		for j, q := range qs {
			vrs, err := co.QueryVerified(name, q, nil)
			if err != nil {
				return nil, err
			}
			for i, vr := range vrs {
				subs[i].Verified[j] = vr
			}
		}
		return subs, nil

	default:
		perShard, err := co.QueryBatch(name, qs)
		if err != nil {
			return nil, err
		}
		subs := make([]Sub, len(perShard))
		for i, rs := range perShard {
			if len(rs) != len(qs) {
				return nil, fmt.Errorf("shard %d answered %d batch results for %d queries", i, len(rs), len(qs))
			}
			subs[i] = Sub{Shard: i, Kind: KindResults, Results: rs}
		}
		return subs, nil
	}
}

// decodeInsert parses the shared insert payload shape (CmdInsert /
// CmdInsertStamped / CmdShardInsert): name | count:u32 | tuples.
func decodeInsert(r *wire.Buffer) (string, []ph.EncryptedTuple, error) {
	name, err := r.String()
	if err != nil {
		return "", nil, err
	}
	n, err := r.U32()
	if err != nil {
		return "", nil, err
	}
	tuples := make([]ph.EncryptedTuple, 0, wire.ClampCount(n, r.Remaining()/8))
	for i := uint32(0); i < n; i++ {
		tp, err := wire.DecodeTuple(r)
		if err != nil {
			return "", nil, err
		}
		tuples = append(tuples, tp)
	}
	return name, tuples, nil
}

// padBatchFlags rewrites a CmdQueryBatch payload (name | count |
// queries) into the flagged request shape (name | flags | count |
// queries) so both decode through DecodeQueryRequest. The name is a
// length-prefixed string, so splicing a zero flag byte after it is
// well-defined.
func padBatchFlags(payload []byte) []byte {
	r := wire.NewBuffer(payload)
	if _, err := r.String(); err != nil {
		// Malformed name: return as-is and let the decoder report it.
		return payload
	}
	nameLen := len(payload) - r.Remaining()
	out := make([]byte, 0, len(payload)+1)
	out = append(out, payload[:nameLen]...)
	out = append(out, 0)
	out = append(out, payload[nameLen:]...)
	return out
}

// mergeResults folds per-shard results into one single-server-shaped
// result: tuples concatenated in shard order, positions renumbered in
// merge order. Synthetic positions are deliberate — the real
// coordinates are (shard, offset) pairs, which only the shard-framed
// response preserves — and safe only on the unverified path, where
// decryption reads tuples, never positions.
func mergeResults(results []*ph.Result) *ph.Result {
	merged := &ph.Result{}
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, tp := range res.Tuples {
			merged.Positions = append(merged.Positions, len(merged.Positions))
			merged.Tuples = append(merged.Tuples, tp)
		}
	}
	return merged
}

// mergeTables concatenates per-shard partitions, in shard order, into
// one table.
func mergeTables(parts []*ph.EncryptedTable) *ph.EncryptedTable {
	merged := &ph.EncryptedTable{}
	for _, part := range parts {
		if part == nil {
			continue
		}
		if merged.SchemeID == "" {
			merged.SchemeID = part.SchemeID
			merged.Meta = part.Meta
		}
		merged.Tuples = append(merged.Tuples, part.Tuples...)
	}
	return merged
}
