package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wire"
)

// storeBackend is the canonical Backend: the full command set evaluated
// against one local storage.Store. It carries no policy — Ready gating,
// read-only rejection, deadlines and caps all live in Server — so the
// same command implementations serve primaries, replicas, and the
// per-shard stores behind a coordinator. A mutation's payload goes to
// Store.Apply undecoded: it is the log record, so only the store reads
// it.
type storeBackend struct {
	store *storage.Store
}

func (b *storeBackend) Sync() error { return b.store.Sync() }

// HandleFrame implements the command set. Response payloads build on
// scratch.
func (b *storeBackend) HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error) {
	r := wire.NewBuffer(f.Payload)
	switch f.Type {
	case wire.CmdStore, wire.CmdInsert, wire.CmdDrop:
		base, n, version, err := b.store.Apply(f.Type, f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		if f.Type != wire.CmdInsert {
			return wire.Frame{Type: wire.RespOK}, nil
		}
		// The placement ack lets a verifying client advance its pinned
		// root from its own leaf hashes instead of re-downloading.
		payload := wire.AppendU32(scratch, uint32(base))
		payload = wire.AppendU32(payload, uint32(n))
		payload = wire.AppendU64(payload, version)
		return wire.Frame{Type: wire.RespInserted, Payload: payload}, nil

	case wire.CmdQuery:
		// One Store.Read answers every plan under one table read lock, on
		// this goroutine. The tokens are views of f.Payload: they are done
		// with once the answers are encoded (see storage.Store.Read).
		name, flags, plans, err := query.DecodeRequest(f.Payload, core.SchemeID)
		if err != nil {
			return wire.Frame{}, err
		}
		resps, err := b.store.Read(name, flags, plans)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespResult, Payload: query.EncodeResponses(scratch, flags, resps)}, nil

	case wire.CmdFetchAll:
		name, err := wire.DecodeName(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		payload, err := b.store.AppendTable(scratch, name)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespTable, Payload: payload}, nil

	case wire.CmdList:
		if err := r.Err(); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespList, Payload: wire.EncodeList(scratch, b.store.List())}, nil

	case wire.CmdShipLog:
		// Log shipping for read replicas: answer with whole records of the
		// current log file, as the file holds them, from the follower's
		// cursor. The store clamps everything hostile — an unknown epoch
		// or a sequence past the head is answered from the log's origin,
		// and the byte budget caps the answer regardless of what the peer
		// asked for.
		reqEpoch, err := r.U64()
		if err != nil {
			return wire.Frame{}, err
		}
		from, err := r.U64()
		if err != nil {
			return wire.Frame{}, err
		}
		maxBytes, err := r.U32()
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return wire.Frame{}, err
		}
		log, epoch, start, head, err := b.store.ReadLog(reqEpoch, from, maxBytes)
		if err != nil {
			return wire.Frame{}, err
		}
		payload := wire.AppendU64(scratch, epoch)
		payload = wire.AppendU64(payload, start)
		payload = wire.AppendU64(payload, head)
		payload = wire.AppendBytes(payload, log)
		return wire.Frame{Type: wire.RespLogChunk, Payload: payload}, nil

	case wire.CmdShipSnapshot:
		// Snapshot shipping for replica bootstrap: one byte range of an
		// encoded snapshot. The store clamps everything hostile — the
		// budget is capped server-side, offsets past the end are empty,
		// and an identity it no longer holds is answered with a fresh
		// snapshot from offset 0.
		reqEpoch, err := r.U64()
		if err != nil {
			return wire.Frame{}, err
		}
		reqSeq, err := r.U64()
		if err != nil {
			return wire.Frame{}, err
		}
		offset, err := r.U64()
		if err != nil {
			return wire.Frame{}, err
		}
		maxBytes, err := r.U32()
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return wire.Frame{}, err
		}
		data, epoch, seq, total, off, err := b.store.ReadSnapshot(reqEpoch, reqSeq, offset, maxBytes)
		if err != nil {
			return wire.Frame{}, err
		}
		payload := wire.AppendU64(scratch, epoch)
		payload = wire.AppendU64(payload, seq)
		payload = wire.AppendU64(payload, total)
		payload = wire.AppendU64(payload, off)
		payload = wire.AppendBytes(payload, data)
		return wire.Frame{Type: wire.RespSnapshotChunk, Payload: payload}, nil

	default:
		return wire.Frame{}, fmt.Errorf("server: unknown command %#x", f.Type)
	}
}
