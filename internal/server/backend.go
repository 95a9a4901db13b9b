package server

import (
	"fmt"
	"sync"

	"repro/internal/authindex"
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

// maxBatchFanout caps the goroutines one CmdQueryBatch frame may put in
// flight. The cap bounds per-frame goroutine count against hostile
// frames; it deliberately exceeds the scheduler budget's capacity — see
// queryBatch.
const maxBatchFanout = 64

// queryBatch evaluates a batch of queries against one table. The fanout
// is sized well above the scheduler budget's capacity on purpose: with
// the scan-sharing layer (internal/scanshare) in the store, cold queries
// on the same table coalesce into one shared ψ pass, so most of these
// goroutines just ride a pass (blocked on its completion) rather than
// scanning — capping fanout at CPU count would *serialise* riders that
// could have shared one pass. Actual scan parallelism stays bounded by
// the sched budget, which the shared pass (and every solo scan) draws
// its workers from. The workers pull query indices from a channel, so
// one stalled evaluation occupies only its own worker and never wedges
// dispatch of later queries behind it; pulling also bounds live
// goroutines per frame at the fanout, so a hostile frame declaring
// millions of queries cannot spawn millions of goroutines. Results keep
// the request order; on failure the lowest-index error wins and the
// batch fails as a unit, exactly as the serial loop behaved.
func (b *storeBackend) queryBatch(name string, queries []*ph.EncryptedQuery) ([]*ph.Result, error) {
	results := make([]*ph.Result, len(queries))
	if len(queries) <= 1 {
		for i, q := range queries {
			res, err := b.store.Query(name, q)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	errs := make([]error, len(queries))
	workers := min(len(queries), max(maxBatchFanout, sched.Process().Capacity()))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = b.store.Query(name, queries[i])
			}
		}()
	}
	for i := range queries {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// HandleFrame implements the command set. Response payloads build on
// scratch.
func (b *storeBackend) HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error) {
	r := wire.NewBuffer(f.Payload)
	switch f.Type {
	case wire.CmdStore:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		t, err := wire.DecodeTable(r)
		if err != nil {
			return wire.Frame{}, err
		}
		if err := b.store.Put(name, t); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdInsert, wire.CmdInsertStamped:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		n, err := r.U32()
		if err != nil {
			return wire.Frame{}, err
		}
		tuples := make([]ph.EncryptedTuple, 0, wire.ClampCount(n, r.Remaining()/8))
		for i := uint32(0); i < n; i++ {
			tp, err := wire.DecodeTuple(r)
			if err != nil {
				return wire.Frame{}, err
			}
			tuples = append(tuples, tp)
		}
		base, version, err := b.store.AppendStamped(name, tuples)
		if err != nil {
			return wire.Frame{}, err
		}
		if f.Type == wire.CmdInsert {
			// The unpinned client's ack: it keeps no root to advance, so
			// it needs no placement.
			return wire.Frame{Type: wire.RespOK}, nil
		}
		// The placement ack lets a verifying client advance its pinned
		// root from its own leaf hashes instead of re-downloading.
		payload := wire.AppendU32(scratch, uint32(base))
		payload = wire.AppendU32(payload, uint32(len(tuples)))
		payload = wire.AppendU64(payload, version)
		return wire.Frame{Type: wire.RespInserted, Payload: payload}, nil

	case wire.CmdQuery:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		q, err := wire.DecodeQuery(r)
		if err != nil {
			return wire.Frame{}, err
		}
		res, err := b.store.Query(name, q)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespResult, Payload: wire.EncodeResult(scratch, res)}, nil

	case wire.CmdQueryBatch:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		n, err := r.U32()
		if err != nil {
			return wire.Frame{}, err
		}
		// Capacity is clamped by what the payload could possibly encode
		// (a query is at least two length-prefixed fields), so a declared
		// count in a hostile frame cannot force a huge allocation.
		queries := make([]*ph.EncryptedQuery, 0, wire.ClampCount(n, r.Remaining()/8))
		for i := uint32(0); i < n; i++ {
			q, err := wire.DecodeQuery(r)
			if err != nil {
				return wire.Frame{}, err
			}
			queries = append(queries, q)
		}
		results, err := b.queryBatch(name, queries)
		if err != nil {
			return wire.Frame{}, err
		}
		payload := wire.AppendU32(scratch, n)
		for _, res := range results {
			payload = wire.EncodeResult(payload, res)
		}
		return wire.Frame{Type: wire.RespResults, Payload: payload}, nil

	case wire.CmdFetchAll:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		t, err := b.store.Get(name)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespTable, Payload: wire.EncodeTable(scratch, t)}, nil

	case wire.CmdDrop:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		if err := b.store.Drop(name); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespOK}, nil

	case wire.CmdList:
		return wire.Frame{Type: wire.RespList, Payload: wire.EncodeList(scratch, b.store.List())}, nil

	case wire.CmdQueryVerified:
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		q, err := wire.DecodeQuery(r)
		if err != nil {
			return wire.Frame{}, err
		}
		vr, err := b.store.QueryVerified(name, q)
		if err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{Type: wire.RespResultVerified, Payload: authindex.EncodeVerifiedResult(scratch, vr)}, nil

	case wire.CmdQueryConj:
		// The conjunctive pushdown: plan by estimated selectivity, narrow
		// survivors, answer with only the intersection. Executed (and, for
		// the verified flag, proof-cut) under one read-locked store
		// snapshot; the explain flag returns the plan without running it.
		name, err := r.String()
		if err != nil {
			return wire.Frame{}, err
		}
		flags, err := r.U8()
		if err != nil {
			return wire.Frame{}, err
		}
		n, err := r.U32()
		if err != nil {
			return wire.Frame{}, err
		}
		// Clamped like CmdQueryBatch: a declared count in a hostile frame
		// cannot force a huge allocation.
		queries := make([]*ph.EncryptedQuery, 0, wire.ClampCount(n, r.Remaining()/8))
		for i := uint32(0); i < n; i++ {
			q, err := wire.DecodeQuery(r)
			if err != nil {
				return wire.Frame{}, err
			}
			queries = append(queries, q)
		}
		resp := &query.Response{}
		switch {
		case flags&wire.ConjFlagExplain != 0:
			if resp.Plan, err = b.store.ExplainConj(name, queries); err != nil {
				return wire.Frame{}, err
			}
		case flags&wire.ConjFlagVerified != 0:
			if resp.Verified, resp.Plan, err = b.store.QueryConjVerified(name, queries); err != nil {
				return wire.Frame{}, err
			}
		default:
			if resp.Result, resp.Plan, err = b.store.QueryConj(name, queries); err != nil {
				return wire.Frame{}, err
			}
		}
		return wire.Frame{Type: wire.RespResultConj, Payload: query.EncodeResponse(scratch, resp)}, nil

	case wire.CmdShipLog:
		// Log shipping for read replicas: answer with records of the
		// current log file from the follower's cursor. The store clamps
		// everything hostile — an unknown epoch or a sequence past the
		// head is answered from the log's origin, and the byte budget caps
		// the answer regardless of what the peer asked for.
		reqEpoch, err := r.U64()
		if err != nil {
			return wire.Frame{}, err
		}
		from, err := r.U64()
		if err != nil {
			return wire.Frame{}, err
		}
		maxBytes, err := r.U32()
		if err != nil {
			return wire.Frame{}, err
		}
		recs, epoch, start, head, err := b.store.ReadLog(reqEpoch, from, maxBytes)
		if err != nil {
			return wire.Frame{}, err
		}
		payload := wire.AppendU64(scratch, epoch)
		payload = wire.AppendU64(payload, start)
		payload = wire.AppendU64(payload, head)
		payload = wire.AppendU32(payload, uint32(len(recs)))
		for _, rec := range recs {
			payload = wire.AppendU8(payload, rec.Op)
			payload = wire.AppendBytes(payload, rec.Payload)
		}
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
