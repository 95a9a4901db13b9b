package shard

import (
	"fmt"

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
//     because nothing verifies against them; a verified read through
//     CmdQuery is therefore *refused* with an error naming the
//     shard-framed alternative, rather than answered with proofs that
//     could never verify.
func (co *Coordinator) Sync() error { return nil }

// HandleFrame serves one command frame against the sharded cluster.
func (co *Coordinator) HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error) {
	switch f.Type {
	case wire.CmdQuery, wire.CmdShardQuery:
		// One request, one scatter, two envelopes: CmdShardQuery frames
		// the per-shard answers as they are, CmdQuery merges them into
		// the single-server shape.
		name, flags, plans, err := query.DecodeRequest(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		framed := f.Type == wire.CmdShardQuery
		switch {
		case flags == wire.ReadFlagFetch && framed:
			parts, err := co.Fetch(name)
			if err != nil {
				return wire.Frame{}, err
			}
			subs := make([]Sub, len(parts))
			for i, t := range parts {
				subs[i] = Sub{Shard: i, Kind: KindTable, Table: t}
			}
			return wire.Frame{Type: wire.RespResultShard, Payload: EncodeResponse(scratch, co.m.Version, subs)}, nil
		case flags == wire.ReadFlagFetch:
			return wire.Frame{}, fmt.Errorf("coordinator: a per-shard partition fetch needs the CmdShardQuery envelope; use CmdFetchAll for the merged table")
		case flags == wire.ReadFlagVerified && !framed:
			return wire.Frame{}, fmt.Errorf("coordinator: each shard keeps its own authenticated index, and a merged answer cannot carry per-shard proofs; send the verified read as CmdShardQuery and verify against the per-shard root vector")
		}
		// The coordinator cannot verify (it holds no roots); it relays
		// proofs for the client to check, so no VerifyCheck is passed.
		perShard, err := co.read(name, flags, plans, nil)
		if err != nil {
			return wire.Frame{}, err
		}
		if framed {
			subs := make([]Sub, len(perShard))
			for i, resps := range perShard {
				subs[i] = Sub{Shard: i, Kind: KindRead, Flags: flags, Reads: resps}
			}
			return wire.Frame{Type: wire.RespResultShard, Payload: EncodeResponse(scratch, co.m.Version, subs)}, nil
		}
		merged := make([]query.Response, len(plans))
		for j := range plans {
			infos := make([]*query.PlanInfo, len(perShard))
			results := make([]*ph.Result, len(perShard))
			for i, resps := range perShard {
				infos[i], results[i] = resps[j].Plan, resps[j].Result
			}
			if flags == wire.ReadFlagExplain {
				merged[j].Plan = query.MergePlans(infos)
			} else {
				merged[j].Result = mergeResults(results)
			}
		}
		return wire.Frame{Type: wire.RespResult, Payload: query.EncodeResponses(scratch, flags, merged)}, nil

	case wire.CmdShardInsert:
		name, tuples, err := wire.DecodeInsert(f.Payload)
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
		name, t, err := wire.DecodeStore(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		if err := co.Store(name, t); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdInsert:
		name, tuples, err := wire.DecodeInsert(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		if _, err := co.Insert(name, tuples); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdFetchAll:
		name, err := wire.DecodeName(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		parts, err := co.Fetch(name)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespTable, Payload: wire.EncodeTable(scratch, mergeTables(parts))}, nil

	case wire.CmdDrop:
		name, err := wire.DecodeName(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		if err := co.Drop(name); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdList:
		if err := wire.NewBuffer(f.Payload).Err(); err != nil {
			return wire.Frame{}, err
		}
		infos, err := co.List()
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespList, Payload: wire.EncodeList(scratch, infos)}, nil

	case wire.CmdInsertStamped:
		return wire.Frame{}, fmt.Errorf("coordinator: a single placement ack cannot describe a sharded append; use CmdShardInsert for per-shard acks")

	case wire.CmdShipLog, wire.CmdShipSnapshot:
		return wire.Frame{}, fmt.Errorf("coordinator: replication is per shard; point followers at the shard primaries, not the coordinator")

	default:
		return wire.Frame{}, fmt.Errorf("coordinator: unknown command %#x", f.Type)
	}
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
