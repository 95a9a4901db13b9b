package shard

import (
	"fmt"

	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// Wire codec for a coordinator's answers (RespResultShard,
// RespInsertedShard). A RespResultShard keeps the per-shard sub-answers
// separate — framed by shard id, in strictly ascending shard order —
// because the verifying client checks each one
// against its own entry of the pinned root vector; a pre-merged answer
// would have nothing to verify against. Every count decoded here is
// clamped against what the payload could possibly hold *before* any
// allocation, and shard ids must be strictly ascending (duplicates and
// reordering are protocol errors, not merge inputs). A read sub-answer
// is the very payload a single server answers CmdQuery with, through
// the same decoder, so it gets the same checks — among them strictly
// ascending result positions: the merge operates on (shard, offset)
// pairs and refuses malformed coordinates rather than sorting a hostile
// answer into shape.

// Sub-payload kinds in a RespResultShard entry.
const (
	// KindRead is the shard's answer to the read request: a RespResult
	// payload (query.EncodeResponses), one answer per plan.
	KindRead byte = 0
	// KindTable is the shard's full partition as one ph.EncryptedTable.
	KindTable byte = 3
)

// Sub is one shard's sub-answer in a RespResultShard. Kind selects
// which payload fields are set.
type Sub struct {
	// Shard is the answering shard's index in the partition map.
	Shard int
	// Kind selects the sub-payload codec (Kind*).
	Kind byte
	// Flags are the read flags the answers are shaped by (KindRead).
	Flags byte
	// Reads holds the shard's answer per request plan (KindRead).
	Reads []query.Response
	// Table holds the shard's partition (KindTable).
	Table *ph.EncryptedTable
}

// Ack is one shard's placement acknowledgement in a RespInsertedShard.
type Ack struct {
	// Shard is the acknowledging shard's index.
	Shard int
	// Base is the shard table's tuple count before the append.
	Base int
	// Count is the number of tuples appended on this shard.
	Count int
	// Version is the shard store's version after the append.
	Version uint64
}

// EncodeResponse serialises a RespResultShard payload: the partition
// map version and the sub-answers in ascending shard order.
func EncodeResponse(dst []byte, mapVersion uint64, subs []Sub) []byte {
	dst = wire.AppendU64(dst, mapVersion)
	dst = wire.AppendU32(dst, uint32(len(subs)))
	for _, sub := range subs {
		dst = wire.AppendU32(dst, uint32(sub.Shard))
		dst = wire.AppendU8(dst, sub.Kind)
		var body []byte
		switch sub.Kind {
		case KindRead:
			body = query.EncodeResponses(body, sub.Flags, sub.Reads)
		case KindTable:
			body = wire.EncodeTable(body, sub.Table)
		}
		dst = wire.AppendBytes(dst, body)
	}
	return dst
}

// DecodeResponse parses a RespResultShard payload. maxShards bounds the
// declared sub-answer count (the caller knows its partition map); shard
// ids must be strictly ascending and inside the map.
func DecodeResponse(payload []byte, maxShards int) (mapVersion uint64, subs []Sub, err error) {
	r := wire.NewBuffer(payload)
	if mapVersion, err = r.U64(); err != nil {
		return 0, nil, fmt.Errorf("shard: response map version: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return 0, nil, fmt.Errorf("shard: response shard count: %w", err)
	}
	if int64(n) > int64(maxShards) {
		return 0, nil, fmt.Errorf("shard: response declares %d shards, partition map has %d", n, maxShards)
	}
	subs = make([]Sub, 0, wire.ClampCount(n, r.Remaining()/9))
	prev := -1
	for i := uint32(0); i < n; i++ {
		id, err := r.U32()
		if err != nil {
			return 0, nil, fmt.Errorf("shard: sub-answer %d shard id: %w", i, err)
		}
		if int64(id) >= int64(maxShards) {
			return 0, nil, fmt.Errorf("shard: sub-answer shard id %d outside %d-shard map", id, maxShards)
		}
		if int(id) <= prev {
			return 0, nil, fmt.Errorf("shard: sub-answer shard ids not strictly ascending (%d after %d)", id, prev)
		}
		prev = int(id)
		kind, err := r.U8()
		if err != nil {
			return 0, nil, fmt.Errorf("shard: sub-answer %d kind: %w", i, err)
		}
		body, err := r.Bytes()
		if err != nil {
			return 0, nil, fmt.Errorf("shard: sub-answer %d payload: %w", i, err)
		}
		sub := Sub{Shard: int(id), Kind: kind}
		switch kind {
		case KindRead:
			if sub.Flags, sub.Reads, err = query.DecodeResponses(body); err != nil {
				return 0, nil, fmt.Errorf("shard: shard %d: %w", id, err)
			}
		case KindTable:
			br := wire.NewBuffer(body)
			if sub.Table, err = wire.DecodeTable(br); err == nil {
				err = br.Err()
			}
			if err != nil {
				return 0, nil, fmt.Errorf("shard: shard %d partition: %w", id, err)
			}
		default:
			return 0, nil, fmt.Errorf("shard: shard %d sub-answer has unknown kind %#x", id, kind)
		}
		subs = append(subs, sub)
	}
	if r.Remaining() != 0 {
		return 0, nil, fmt.Errorf("shard: response has %d trailing bytes", r.Remaining())
	}
	return mapVersion, subs, nil
}

// EncodeAcks serialises a RespInsertedShard payload: the partition map
// version and one placement ack per shard that received tuples, in
// ascending shard order.
func EncodeAcks(dst []byte, mapVersion uint64, acks []Ack) []byte {
	dst = wire.AppendU64(dst, mapVersion)
	dst = wire.AppendU32(dst, uint32(len(acks)))
	for _, a := range acks {
		dst = wire.AppendU32(dst, uint32(a.Shard))
		dst = wire.AppendU32(dst, uint32(a.Base))
		dst = wire.AppendU32(dst, uint32(a.Count))
		dst = wire.AppendU64(dst, a.Version)
	}
	return dst
}

// DecodeAcks parses a RespInsertedShard payload; shard ids must be
// strictly ascending and inside the map.
func DecodeAcks(payload []byte, maxShards int) (mapVersion uint64, acks []Ack, err error) {
	r := wire.NewBuffer(payload)
	if mapVersion, err = r.U64(); err != nil {
		return 0, nil, fmt.Errorf("shard: ack map version: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return 0, nil, fmt.Errorf("shard: ack shard count: %w", err)
	}
	if int64(n) > int64(maxShards) {
		return 0, nil, fmt.Errorf("shard: acks declare %d shards, partition map has %d", n, maxShards)
	}
	acks = make([]Ack, 0, wire.ClampCount(n, r.Remaining()/20))
	prev := -1
	for i := uint32(0); i < n; i++ {
		id, err := r.U32()
		if err != nil {
			return 0, nil, fmt.Errorf("shard: ack %d shard id: %w", i, err)
		}
		if int64(id) >= int64(maxShards) {
			return 0, nil, fmt.Errorf("shard: ack shard id %d outside %d-shard map", id, maxShards)
		}
		if int(id) <= prev {
			return 0, nil, fmt.Errorf("shard: ack shard ids not strictly ascending (%d after %d)", id, prev)
		}
		prev = int(id)
		base, err := r.U32()
		if err != nil {
			return 0, nil, fmt.Errorf("shard: ack %d base: %w", i, err)
		}
		count, err := r.U32()
		if err != nil {
			return 0, nil, fmt.Errorf("shard: ack %d count: %w", i, err)
		}
		version, err := r.U64()
		if err != nil {
			return 0, nil, fmt.Errorf("shard: ack %d version: %w", i, err)
		}
		acks = append(acks, Ack{Shard: int(id), Base: int(base), Count: int(count), Version: version})
	}
	if r.Remaining() != 0 {
		return 0, nil, fmt.Errorf("shard: acks have %d trailing bytes", r.Remaining())
	}
	return mapVersion, acks, nil
}
