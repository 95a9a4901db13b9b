package shard

import (
	"testing"

	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// TestCoordinatorOneReplyPerCommand: a coordinator answers every
// command it accepts in exactly one envelope — reads and fetches framed
// per shard whatever the read flags, inserts with per-shard placement
// acks — and refuses the retired command bytes and the retired fetch
// flag.
func TestCoordinatorOneReplyPerCommand(t *testing.T) {
	co, _ := newCluster(t, 2)
	scheme := shardScheme(t)
	et, err := scheme.EncryptTable(shardTable())
	if err != nil {
		t.Fatal(err)
	}
	handle := func(f wire.Frame) (wire.Frame, error) { return co.HandleFrame(f, nil) }
	reply := func(what string, f wire.Frame, want byte) wire.Frame {
		t.Helper()
		resp, err := handle(f)
		if err != nil || resp.Type != want {
			t.Fatalf("%s answered %#x (%v), want %#x", what, resp.Type, err, want)
		}
		return resp
	}
	request := func(flags byte, plans [][]*ph.EncryptedQuery) []byte {
		payload, err := query.EncodeRequest(nil, "emp", flags, plans)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	plans := [][]*ph.EncryptedQuery{{mustEncrypt(t, scheme, "dept", "HR")}}

	reply("store", wire.Frame{Type: wire.CmdStore, Payload: wire.EncodeTable(wire.AppendString(nil, "emp"), et)}, wire.RespOK)

	insert := wire.EncodeInsert(nil, "emp", et.Tuples[:3])
	resp := reply("insert", wire.Frame{Type: wire.CmdInsert, Payload: insert}, wire.RespInsertedShard)
	if _, acks, err := DecodeAcks(resp.Payload, 2); err != nil || len(acks) == 0 {
		t.Fatalf("insert acks %+v, %v", acks, err)
	}

	for _, flags := range []byte{0, wire.ReadFlagVerified, wire.ReadFlagExplain} {
		resp := reply("query", wire.Frame{Type: wire.CmdQuery, Payload: request(flags, plans)}, wire.RespResultShard)
		_, subs, err := DecodeResponse(resp.Payload, 2)
		if err != nil || len(subs) != 2 {
			t.Fatalf("query with flags %#x: %d sub-answers, %v", flags, len(subs), err)
		}
		for _, sub := range subs {
			if sub.Kind != KindRead || sub.Flags != flags || len(sub.Reads) != 1 {
				t.Fatalf("query with flags %#x: shard %d answered kind %#x, flags %#x, %d reads", flags, sub.Shard, sub.Kind, sub.Flags, len(sub.Reads))
			}
		}
	}

	resp = reply("fetch", wire.Frame{Type: wire.CmdFetchAll, Payload: wire.AppendString(nil, "emp")}, wire.RespResultShard)
	_, subs, err := DecodeResponse(resp.Payload, 2)
	if err != nil || len(subs) != 2 || subs[0].Kind != KindTable || len(subs[0].Table.Tuples)+len(subs[1].Table.Tuples) != 27 {
		t.Fatalf("fetch: %+v, %v", subs, err)
	}
	reply("list", wire.Frame{Type: wire.CmdList}, wire.RespList)

	for _, f := range []wire.Frame{
		{Type: 0x0B, Payload: insert},
		{Type: 0x0F, Payload: request(0, plans)},
		{Type: 0x0F, Payload: request(1<<2, nil)},
		{Type: 0x10, Payload: insert},
		{Type: wire.CmdQuery, Payload: request(1<<2, nil)},
	} {
		if resp, err := handle(f); err == nil {
			t.Fatalf("command %#x with %d payload bytes answered %#x, want a refusal", f.Type, len(f.Payload), resp.Type)
		}
	}

	reply("drop", wire.Frame{Type: wire.CmdDrop, Payload: wire.AppendString(nil, "emp")}, wire.RespOK)
}
