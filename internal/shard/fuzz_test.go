package shard

import (
	"testing"

	"repro/internal/authindex"
	"repro/internal/query"
	"repro/internal/wire"
)

// FuzzDecodeShardResponse drives the hostile-response decoder with a
// seed corpus of the attacks the codec must survive: truncations,
// flipped and duplicated shard ids, duplicate merge positions, and
// declared-count length bombs. The invariant is total: any byte string
// either decodes into well-formed subs (ascending shard ids inside the
// map, strictly ascending positions) or errors — never panics, never
// over-allocates on a declared count the payload cannot back.
func FuzzDecodeShardResponse(f *testing.F) {
	version, subs := uint64(7), []Sub(nil)
	{
		_, s := sampleResponse()
		subs = s
	}
	valid := EncodeResponse(nil, version, subs)
	f.Add(append([]byte(nil), valid...))
	// Truncations at every structural boundary: map version, shard count,
	// shard id, kind, body length, then inside the read sub-answer its
	// flags, answer count and the first result's position count.
	for _, cut := range []int{0, 4, 8, 12, 16, 17, 21, 22, 24, 28, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	// Flipped (descending) and duplicated shard ids.
	f.Add(EncodeResponse(nil, version, []Sub{subs[1], subs[0]}))
	f.Add(EncodeResponse(nil, version, []Sub{subs[0], subs[0]}))
	// Duplicate and descending positions inside one shard's result.
	for _, positions := range [][]int{{2, 2}, {3, 1}} {
		f.Add(EncodeResponse(nil, version, []Sub{readSub(0, positions, 1, 2)}))
	}
	// Length bombs: hostile declared counts over tiny payloads.
	bomb := wire.AppendU64(nil, version)
	bomb = wire.AppendU32(bomb, 0xFFFFFFFF)
	f.Add(bomb)
	f.Add(subFrame(version, KindRead, wire.AppendU16(wire.AppendU8(nil, 0), 0xFFFF)))
	// Unknown kind byte and trailing garbage, after the frame and inside
	// a sub-answer.
	f.Add(subFrame(version, 0x7F, nil))
	f.Add(append(append([]byte(nil), valid...), 0xFF))
	f.Add(subFrame(version, KindRead, append(query.EncodeResponses(nil, 0, nil), 0xAB)))
	// A verified sub-answer: its sibling block whole, then off the hash
	// grid, then longer than its one position of 4 × CapNodes leaves (cap
	// level 2) can need.
	for _, block := range []int{2 * authindex.HashSize, authindex.HashSize + 1, 3 * authindex.HashSize} {
		vr := &authindex.VerifiedResult{Result: readSub(0, []int{1}, 1).Reads[0].Result,
			Root: make([]byte, authindex.HashSize), Leaves: 4 * authindex.CapNodes, Version: 1, Multiproof: make([]byte, block)}
		f.Add(subFrame(version, KindRead, query.EncodeResponses(nil, wire.ReadFlagVerified, []query.Response{{Verified: vr}})))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, subs, err := DecodeResponse(data, 8)
		if err != nil {
			return
		}
		prev := -1
		for _, sub := range subs {
			if sub.Shard <= prev || sub.Shard >= 8 {
				t.Fatalf("decoder admitted out-of-order shard id %d", sub.Shard)
			}
			prev = sub.Shard
			for _, resp := range sub.Reads {
				if resp.Plan != nil {
					continue
				}
				positions := resp.Matches().Positions
				for i, p := range positions {
					if p < 0 || (i > 0 && p <= positions[i-1]) {
						t.Fatalf("decoder admitted malformed positions %v", positions)
					}
				}
			}
		}
	})
}
