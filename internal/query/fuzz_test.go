package query

import (
	"reflect"
	"testing"

	"repro/internal/ph"
	"repro/internal/wire"
)

// FuzzDecodeResponses drives the read-response decoder — what a client
// runs on every RespResult, and on every shard's sub-answer — with
// arbitrary bytes: it must never panic or over-allocate, anything it
// accepts must survive re-encoding unchanged, and accepted positions are
// strictly ascending. Seeds cover the three answer shapes plus hostile
// ones (count bombs, NaN estimates, truncation, trailing bytes).
func FuzzDecodeResponses(f *testing.F) {
	f.Add([]byte{})
	for flags, resps := range sampleResponses() {
		full := EncodeResponses(nil, flags, resps)
		f.Add(full)
		f.Add(full[:len(full)/2])
		f.Add(append(full, 0))
	}
	f.Add(wire.AppendU16(wire.AppendU8(nil, 0), 0xFFFF))
	// A tiny frame declaring 2^32-1 plan steps.
	f.Add(wire.AppendU32(wire.AppendU32(wire.AppendU16(wire.AppendU8(nil, wire.ReadFlagExplain), 1), 10), 0xFFFFFFFF))
	// A NaN selectivity estimate.
	nan := wire.AppendU32(wire.AppendU32(wire.AppendU16(wire.AppendU8(nil, wire.ReadFlagExplain), 1), 10), 1)
	nan = wire.AppendU8(wire.AppendU32(nan, 0), 0)
	nan = wire.AppendU8(wire.AppendU64(nan, 0x7FF8000000000001), 0)
	f.Add(wire.AppendU32(wire.AppendU32(nan, 0), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		flags, resps, err := DecodeResponses(data)
		if err != nil {
			return
		}
		flags2, resps2, err := DecodeResponses(EncodeResponses(nil, flags, resps))
		if err != nil || flags2 != flags || !reflect.DeepEqual(resps2, resps) {
			t.Fatalf("accepted answers do not survive re-encoding (%v)", err)
		}
		for _, resp := range resps {
			if resp.Plan == nil && checkPositions(resp.Matches().Positions) != nil {
				t.Fatal("accepted positions that are not strictly ascending")
			}
		}
	})
}

// FuzzDecodeRequest drives the read-request decoder — the one every
// backend runs on CmdQuery — the same way.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	qs := sampleQueries()
	for flags, plans := range map[byte][][]*ph.EncryptedQuery{
		0:                     {qs[:1]},
		wire.ReadFlagVerified: {qs, qs[:1], qs[1:]},
		wire.ReadFlagExplain:  {qs},
		1 << 2:                nil, // the retired fetch flag, refused
	} {
		full, _ := EncodeRequest(nil, "emp", flags, plans)
		f.Add(full)
		f.Add(full[:len(full)-1])
		f.Add(append(full, 0))
	}
	head := wire.AppendU8(wire.AppendString(nil, "emp"), 0)
	f.Add(wire.AppendU16(head, 0xFFFF))                         // plan-count bomb
	f.Add(wire.AppendU16(wire.AppendU16(head, 1), 0xFFFF))      // conjunct-count bomb
	f.Add(wire.AppendU32(wire.AppendString(nil, "emp"), 1<<31)) // the retired u32 count where the flags now sit
	f.Fuzz(func(t *testing.T, data []byte) {
		name, flags, plans, err := DecodeRequest(data)
		if err != nil {
			return
		}
		re, err := EncodeRequest(nil, name, flags, plans)
		if err != nil || !reflect.DeepEqual(re, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones (%v)", len(data), len(re), err)
		}
		for _, qs := range plans {
			if len(qs) == 0 {
				t.Fatal("accepted an empty conjunction")
			}
		}
	})
}
