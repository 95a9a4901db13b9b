package storage_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// twoRuns is the CmdStore payload of t under name with its tuples sent
// as two runs of one shape, its first k tuples and then the rest: valid,
// but not the one run EncodeTable writes for them.
func twoRuns(name string, t *ph.EncryptedTable, k int) []byte {
	part := func(ts []ph.EncryptedTuple) []byte {
		return wire.EncodeTable(nil, &ph.EncryptedTable{SchemeID: t.SchemeID, Meta: t.Meta, Tuples: ts})
	}
	a, b := part(t.Tuples[:k]), part(t.Tuples[k:])
	head := len(wire.AppendBytes(wire.AppendString(nil, t.SchemeID), t.Meta)) // then count:u32 and the runs
	p := append(wire.AppendString(nil, name), a[:head]...)
	p = wire.AppendU32(p, uint32(len(t.Tuples)))
	p = append(p, a[head+4:]...)
	return append(p, b[head+4:]...)
}

// records returns the op and payload of every record of a log file.
func records(t *testing.T, path string) (ops []byte, payloads [][]byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.EachWALRecord(b[storage.LogHdrLen:], func(op byte, payload []byte) error {
		ops, payloads = append(ops, op), append(payloads, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ops, payloads
}

// TestMutationIsItsRecord: a mutation's log record is the payload of the
// frame that carried it. Frames sent through a server to a durable store
// are its log's records byte for byte, in order — among them a CmdStore
// whose table comes as two runs of one shape, which a store that encoded
// its record from the stored table would log as one. Replay refuses the
// records shipping refuses, so a primary never replays a log its
// followers cannot apply. And a follower fed the log by ApplyShipped and
// the primary reopened on it reach the primary's roots.
func TestMutationIsItsRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "primary.log")
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := server.New(st, nil)
	defer srv.Close()
	c, s := net.Pipe()
	go srv.ServeConn(s)
	conn := client.NewConn(c)
	defer conn.Close()

	emp, dept := storage.FixtureTable(5, 1), storage.FixtureTable(6, 2)
	split := twoRuns("dept", dept, 2)
	if bytes.Equal(split, wire.EncodeTable(wire.AppendString(nil, "dept"), dept)) {
		t.Fatal("fixture: the two-run payload is the canonical one")
	}
	frames := []wire.Frame{
		{Type: wire.CmdStore, Payload: wire.EncodeTable(wire.AppendString(nil, "emp"), emp)},
		{Type: wire.CmdInsert, Payload: wire.EncodeInsert(nil, "emp", storage.FixtureTable(3, 3).Tuples)},
		{Type: wire.CmdStore, Payload: split},
		{Type: wire.CmdInsert, Payload: wire.EncodeInsert(nil, "dept", storage.FixtureTable(1, 4).Tuples)},
		{Type: wire.CmdStore, Payload: wire.EncodeTable(wire.AppendString(nil, "gone"), storage.FixtureTable(2, 5))},
		{Type: wire.CmdDrop, Payload: wire.AppendString(nil, "gone")},
	}
	op := map[byte]byte{wire.CmdStore: storage.OpStore, wire.CmdInsert: storage.OpInsert, wire.CmdDrop: storage.OpDrop}
	for i, f := range frames {
		if _, err := conn.RoundTrip(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	ops, payloads := records(t, path)
	if len(ops) != len(frames) {
		t.Fatalf("the log holds %d records for %d frames", len(ops), len(frames))
	}
	for i, f := range frames {
		if ops[i] != op[f.Type] || !bytes.Equal(payloads[i], f.Payload) {
			t.Fatalf("record %d is op %#x, %d bytes; frame %d was %#x, %d bytes: the log does not hold what the wire delivered",
				i, ops[i], len(payloads[i]), i, f.Type, len(f.Payload))
		}
	}

	// The follower and the reopened primary reach the primary's roots.
	log, _, _, _, err := st.ReadLog(st.LogEpoch(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := storage.Open(filepath.Join(dir, "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if n, err := follower.ApplyShipped(log); err != nil || n != len(frames) {
		t.Fatalf("the follower applied %d of %d records: %v", n, len(frames), err)
	}
	storage.AssertSameState(t, st, follower)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	reopened, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	storage.AssertSameState(t, st, reopened)

	// Replay refuses what shipping refuses.
	for _, bad := range []struct {
		name string
		rec  []byte
		want string
	}{
		{"store with an empty name", storage.AppendWALRecord(nil, storage.OpStore, wire.EncodeTable(wire.AppendString(nil, ""), emp)), "empty table name"},
		{"drop of an unknown table", storage.AppendWALRecord(nil, storage.OpDrop, wire.AppendString(nil, "ghost")), `unknown table "ghost"`},
	} {
		if _, err := storage.NewMemory().ApplyShipped(bad.rec); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("%s: shipping gave %v, want %q", bad.name, err, bad.want)
		}
		p := filepath.Join(t.TempDir(), "store.log")
		s, err := storage.Open(p)
		if err == nil {
			err = s.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(bad.rec)
			err = errors.Join(err, f.Close())
		}
		if err != nil {
			t.Fatal(err)
		}
		if s, err := storage.Open(p); err == nil || !strings.Contains(err.Error(), bad.want) {
			if s != nil {
				s.Close()
			}
			t.Fatalf("%s: replay gave %v, want %q", bad.name, err, bad.want)
		}
	}
}
