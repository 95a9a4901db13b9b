package shard

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

func sampleTuple(id byte) ph.EncryptedTuple {
	return ph.EncryptedTuple{
		ID:    []byte{id, 0x01, 0x02},
		Blob:  []byte{0xAA, id},
		Words: [][]byte{{0x10, id}, {0x20, id}},
	}
}

// readSub is one shard's plain answer to a one-plan read.
func readSub(shard int, positions []int, ids ...byte) Sub {
	res := &ph.Result{Positions: positions}
	for _, id := range ids {
		res.Tuples = append(res.Tuples, sampleTuple(id))
	}
	return Sub{Shard: shard, Kind: KindRead, Reads: []query.Response{{Result: res}}}
}

func sampleResponse() (uint64, []Sub) {
	return 7, []Sub{readSub(0, []int{0, 2}, 1, 2), readSub(2, []int{1}, 3)}
}

// subFrame hand-frames one shard-0 sub-answer of the given kind and body.
func subFrame(version uint64, kind byte, body []byte) []byte {
	payload := wire.AppendU32(wire.AppendU64(nil, version), 1)
	payload = wire.AppendU8(wire.AppendU32(payload, 0), kind)
	return wire.AppendBytes(payload, body)
}

func TestShardResponseRoundTrip(t *testing.T) {
	version, subs := sampleResponse()
	payload := EncodeResponse(nil, version, subs)
	gotVersion, gotSubs, err := DecodeResponse(payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gotVersion != version {
		t.Fatalf("map version %d, want %d", gotVersion, version)
	}
	if len(gotSubs) != len(subs) {
		t.Fatalf("%d subs, want %d", len(gotSubs), len(subs))
	}
	for i := range subs {
		if gotSubs[i].Shard != subs[i].Shard || gotSubs[i].Kind != subs[i].Kind {
			t.Fatalf("sub %d framing: %+v vs %+v", i, gotSubs[i], subs[i])
		}
		want, got := subs[i].Reads[0].Result, gotSubs[i].Reads[0].Result
		if len(got.Positions) != len(want.Positions) || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("sub %d result shape differs", i)
		}
		for j := range want.Tuples {
			if !bytes.Equal(got.Tuples[j].ID, want.Tuples[j].ID) {
				t.Fatalf("sub %d tuple %d differs", i, j)
			}
		}
	}
}

func TestShardResponseVerifiedExplainAndTable(t *testing.T) {
	shardTable := &ph.EncryptedTable{Tuples: []ph.EncryptedTuple{sampleTuple(9), sampleTuple(8), sampleTuple(7)}}
	tree := authindex.Build(shardTable)
	proof, err := tree.ProveAnswer([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	vr := &authindex.VerifiedResult{
		Result:     ph.SelectPositions(shardTable, []int{0, 2}),
		Root:       tree.Root(),
		Leaves:     3,
		Version:    11,
		Multiproof: proof,
	}
	subs := []Sub{
		{Shard: 0, Kind: KindRead, Flags: wire.ReadFlagVerified, Reads: []query.Response{{Verified: vr}, {Verified: vr}}},
		{Shard: 1, Kind: KindRead, Flags: wire.ReadFlagExplain, Reads: []query.Response{{
			Plan: &query.PlanInfo{Tuples: 5, Steps: []query.StepInfo{{Index: 0, Source: query.SourceScan}}},
		}}},
		{Shard: 2, Kind: KindTable, Table: &ph.EncryptedTable{
			SchemeID: "swp-ph",
			Meta:     []byte{0x01},
			Tuples:   []ph.EncryptedTuple{sampleTuple(6)},
		}},
	}
	payload := EncodeResponse(nil, 1, subs)
	_, got, err := DecodeResponse(payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Flags != wire.ReadFlagVerified || len(got[0].Reads) != 2 || got[0].Reads[1].Verified.Leaves != 3 || got[0].Reads[1].Verified.Version != 11 {
		t.Fatalf("verified sub decoded wrong: %+v", got[0])
	}
	for i, read := range got[0].Reads {
		d := read.Verified
		if len(d.Result.Tuples) != 2 {
			t.Fatalf("verified sub-answer %d carries %d tuples, want 2", i, len(d.Result.Tuples))
		}
		if err := authindex.VerifyAnswer(tree.CapRow(), d.Leaves, d.Result.Positions, d.Result.Tuples, d.Multiproof); err != nil {
			t.Fatalf("verified sub-answer %d no longer verifies after the shard framing: %v", i, err)
		}
	}
	if got[1].Flags != wire.ReadFlagExplain || got[1].Reads[0].Plan.Tuples != 5 {
		t.Fatalf("explain sub decoded wrong: %+v", got[1])
	}
	if got[2].Table == nil || got[2].Table.SchemeID != "swp-ph" {
		t.Fatalf("table sub decoded wrong: %+v", got[2].Table)
	}
}

func TestShardResponseHostile(t *testing.T) {
	version, subs := sampleResponse()
	valid := EncodeResponse(nil, version, subs)

	t.Run("truncations", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			if _, _, err := DecodeResponse(valid[:i], 4); err == nil {
				t.Fatalf("truncation to %d bytes accepted", i)
			}
		}
	})

	t.Run("descending shard ids", func(t *testing.T) {
		flipped := []Sub{subs[1], subs[0]}
		payload := EncodeResponse(nil, version, flipped)
		if _, _, err := DecodeResponse(payload, 4); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Fatalf("descending shard ids accepted: %v", err)
		}
	})

	t.Run("duplicate shard ids", func(t *testing.T) {
		dup := []Sub{subs[0], subs[0]}
		payload := EncodeResponse(nil, version, dup)
		if _, _, err := DecodeResponse(payload, 4); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Fatalf("duplicate shard ids accepted: %v", err)
		}
	})

	t.Run("shard id outside map", func(t *testing.T) {
		payload := EncodeResponse(nil, version, subs)
		if _, _, err := DecodeResponse(payload, 2); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("shard id 2 accepted in a 2-shard map: %v", err)
		}
	})

	t.Run("too many shards declared", func(t *testing.T) {
		payload := wire.AppendU64(nil, version)
		payload = wire.AppendU32(payload, 0xFFFFFFFF)
		if _, _, err := DecodeResponse(payload, 4); err == nil {
			t.Fatal("length-bomb shard count accepted")
		}
	})

	t.Run("answer length bomb", func(t *testing.T) {
		body := wire.AppendU16(wire.AppendU8(nil, 0), 0xFFFF) // declared answer count
		if _, _, err := DecodeResponse(subFrame(version, KindRead, body), 4); err == nil {
			t.Fatal("length-bomb answer count accepted")
		}
	})

	t.Run("duplicate positions", func(t *testing.T) {
		payload := EncodeResponse(nil, version, []Sub{readSub(0, []int{2, 2}, 1, 2)})
		if _, _, err := DecodeResponse(payload, 4); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Fatalf("duplicate positions accepted: %v", err)
		}
	})

	t.Run("descending positions", func(t *testing.T) {
		payload := EncodeResponse(nil, version, []Sub{readSub(0, []int{3, 1}, 1, 2)})
		if _, _, err := DecodeResponse(payload, 4); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Fatalf("descending positions accepted: %v", err)
		}
	})

	t.Run("unknown kind", func(t *testing.T) {
		if _, _, err := DecodeResponse(subFrame(version, 0x7F, nil), 4); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Fatalf("unknown kind accepted: %v", err)
		}
	})

	t.Run("trailing bytes", func(t *testing.T) {
		payload := append(append([]byte(nil), valid...), 0xFF)
		if _, _, err := DecodeResponse(payload, 4); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing bytes accepted: %v", err)
		}
	})

	t.Run("sub-payload trailing bytes", func(t *testing.T) {
		for kind, body := range map[byte][]byte{
			KindRead:  query.EncodeResponses(nil, 0, nil),                       // zero answers...
			KindTable: wire.EncodeTable(nil, &ph.EncryptedTable{SchemeID: "x"}), // ...or an empty partition...
		} {
			payload := subFrame(version, kind, append(body, 0xAB)) // ...then junk
			if _, _, err := DecodeResponse(payload, 4); err == nil || !strings.Contains(err.Error(), "trailing") {
				t.Fatalf("kind %#x sub-payload trailing bytes accepted: %v", kind, err)
			}
		}
	})
}

func TestShardAcksRoundTripAndHostile(t *testing.T) {
	acks := []Ack{
		{Shard: 0, Base: 10, Count: 2, Version: 5},
		{Shard: 3, Base: 0, Count: 1, Version: 1},
	}
	payload := EncodeAcks(nil, 9, acks)
	version, got, err := DecodeAcks(payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	if version != 9 || len(got) != 2 || got[0] != acks[0] || got[1] != acks[1] {
		t.Fatalf("acks decoded wrong: v=%d %+v", version, got)
	}

	for i := 0; i < len(payload); i++ {
		if _, _, err := DecodeAcks(payload[:i], 4); err == nil {
			t.Fatalf("ack truncation to %d bytes accepted", i)
		}
	}
	flipped := EncodeAcks(nil, 9, []Ack{acks[1], acks[0]})
	if _, _, err := DecodeAcks(flipped, 4); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("descending ack shard ids accepted: %v", err)
	}
	if _, _, err := DecodeAcks(payload, 2); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("ack shard id outside map accepted: %v", err)
	}
	bomb := wire.AppendU64(nil, 9)
	bomb = wire.AppendU32(bomb, 0xFFFFFFFF)
	if _, _, err := DecodeAcks(bomb, 4); err == nil {
		t.Fatal("length-bomb ack count accepted")
	}
}

func TestMapRouteDeterministicAndSplitOrder(t *testing.T) {
	m := Map{Version: 3, Count: 4}
	tuples := make([]ph.EncryptedTuple, 64)
	for i := range tuples {
		tuples[i] = sampleTuple(byte(i))
	}
	parts := m.Split(tuples)
	if len(parts) != 4 {
		t.Fatalf("split into %d parts", len(parts))
	}
	total := 0
	for s, part := range parts {
		total += len(part)
		prev := -1
		for _, tp := range part {
			if m.Route(tp) != s {
				t.Fatal("tuple routed to the wrong part")
			}
			idx := int(tp.ID[0])
			if idx <= prev {
				t.Fatal("split does not preserve input order")
			}
			prev = idx
		}
	}
	if total != len(tuples) {
		t.Fatalf("split covers %d of %d tuples", total, len(tuples))
	}
	// A different map version is a different placement epoch.
	m2 := Map{Version: 4, Count: 4}
	moved := false
	for _, tp := range tuples {
		if m.Route(tp) != m2.Route(tp) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("bumping the map version did not reshuffle any tuple")
	}
}
