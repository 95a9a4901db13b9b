package server

import (
	"fmt"
	"sync"

	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/wire"
)

// storeBackend is the canonical Backend: the full command set evaluated
// against one local storage.Store. It carries no policy — Ready gating,
// read-only rejection, deadlines and caps all live in Server — so the
// same command implementations serve primaries, replicas, and the
// per-shard stores behind a coordinator.
type storeBackend struct {
	store *storage.Store
}

func (b *storeBackend) Sync() error { return b.store.Sync() }

// maxReadFanout caps the goroutines one CmdQuery frame may put in
// flight. The cap bounds per-frame goroutine count against hostile
// frames; it deliberately exceeds the scheduler budget's capacity — see
// read.
const maxReadFanout = 64

// read evaluates the plans of one read request against one table, each
// plan under its own read-locked snapshot. The fanout over plans is
// sized well above the scheduler budget's capacity on purpose: most
// plans of a batch do not scan — cache hits copy, and identical cold
// plans wait on one scan (internal/scanshare) — so capping fanout at CPU
// count would queue them behind the few that do. A plan that does scan
// runs the scan on its own worker here, and the sched budget, which
// counts that worker, decides whether it may fork any further: the
// first cold plan of a batch takes the idle cores, the rest scan
// serially. The workers pull plan indices from a channel, so
// one stalled evaluation occupies only its own worker and never wedges
// dispatch of later plans behind it; pulling also bounds live
// goroutines per frame at the fanout, so a hostile frame declaring
// thousands of plans cannot spawn thousands of goroutines. Answers keep
// the request order; on failure the lowest-index error wins and the
// request fails as a unit.
func (b *storeBackend) read(name string, flags byte, plans [][]*ph.EncryptedQuery) ([]query.Response, error) {
	resps := make([]query.Response, len(plans))
	if len(plans) == 1 {
		var err error
		resps[0], _, err = b.store.Read(name, plans[0], flags)
		return resps, err
	}
	errs := make([]error, len(plans))
	workers := min(len(plans), max(maxReadFanout, sched.Process().Capacity()))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				resps[i], _, errs[i] = b.store.Read(name, plans[i], flags)
			}
		}()
	}
	for i := range plans {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// HandleFrame implements the command set. Response payloads build on
// scratch.
func (b *storeBackend) HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error) {
	r := wire.NewBuffer(f.Payload)
	switch f.Type {
	case wire.CmdStore:
		name, slab, err := wire.DecodeStoreSlab(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		if err := b.store.PutSlab(name, slab); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdInsert:
		// The runs are validated, then copied from the frame straight
		// into the table's slab: no tuple is decoded.
		name, runs, err := wire.DecodeInsertRuns(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		base, version, err := b.store.AppendRuns(name, runs)
		if err != nil {
			return wire.Frame{}, err
		}
		// The placement ack lets a verifying client advance its pinned
		// root from its own leaf hashes instead of re-downloading.
		payload := wire.AppendU32(scratch, uint32(base))
		payload = wire.AppendU32(payload, uint32(runs.Len()))
		payload = wire.AppendU64(payload, version)
		return wire.Frame{Type: wire.RespInserted, Payload: payload}, nil

	case wire.CmdQuery:
		name, flags, plans, err := query.DecodeRequest(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		resps, err := b.read(name, flags, plans)
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

	case wire.CmdDrop:
		name, err := wire.DecodeName(f.Payload)
		if err != nil {
			return wire.Frame{}, err
		}
		if err := b.store.Drop(name); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

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
