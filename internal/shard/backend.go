package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/wire"
)

// server.Backend implementation: a Coordinator behind server.NewProxy is
// `phserver -coordinator` — one listener speaking the ordinary wire
// commands, scattering each over its shards and answering it in one
// envelope: CmdQuery and CmdFetchAll with RespResultShard, CmdInsert with
// RespInsertedShard — per-shard sub-answers framed by shard id, which is
// what a verifying client needs to check each against its pinned root
// vector. CmdStore, CmdDrop and CmdList answer as a store does. There is
// no merged single-server answer: its positions would be synthetic, and
// nothing could verify against them.
func (co *Coordinator) Sync() error { return nil }

// HandleFrame serves one command frame against the sharded cluster.
func (co *Coordinator) HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error) {
	switch f.Type {
	case wire.CmdQuery:
		name, flags, plans, err := query.DecodeRequest(f.Payload, core.SchemeID)
		if err != nil {
			return wire.Frame{}, err
		}
		// The coordinator cannot verify (it holds no roots); it relays
		// proofs for the client to check, so no VerifyCheck is passed.
		perShard, err := co.read(name, flags, plans, nil)
		if err != nil {
			return wire.Frame{}, err
		}
		subs := make([]Sub, len(perShard))
		for i, resps := range perShard {
			subs[i] = Sub{Shard: i, Kind: KindRead, Flags: flags, Reads: resps}
		}
		return wire.Frame{Type: wire.RespResultShard, Payload: EncodeResponse(scratch, co.m.Version, subs)}, nil

	case wire.CmdFetchAll:
		name, err := wire.DecodeName(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		parts, err := co.Fetch(name)
		if err != nil {
			return wire.Frame{}, err
		}
		subs := make([]Sub, len(parts))
		for i, t := range parts {
			subs[i] = Sub{Shard: i, Kind: KindTable, Table: t}
		}
		return wire.Frame{Type: wire.RespResultShard, Payload: EncodeResponse(scratch, co.m.Version, subs)}, nil

	case wire.CmdInsert:
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

	case wire.CmdShipLog, wire.CmdShipSnapshot:
		return wire.Frame{}, fmt.Errorf("coordinator: replication is per shard; point followers at the shard primaries, not the coordinator")

	default:
		return wire.Frame{}, fmt.Errorf("coordinator: unknown command %#x", f.Type)
	}
}
