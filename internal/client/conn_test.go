package client

import (
	"bufio"
	"bytes"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestConnKeepsNoBufferPastTheBound: a Conn reuses its read and encode
// buffers, but a table upload or download larger than wire.MaxKeptBuf must
// not stay pinned by them for the connection's life.
func TestConnKeepsNoBufferPastTheBound(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	scheme := newScheme(t)
	db := NewDB(conn, scheme, "emp")
	tab := relation.NewTable(empSchema())
	for _, tp := range bigEmpTuples(1500) {
		if err := tab.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	kept := func(after string) {
		t.Helper()
		if cap(conn.rbuf) > wire.MaxKeptBuf || cap(conn.wbuf) > wire.MaxKeptBuf {
			t.Fatalf("after %s the Conn keeps a %d-byte read and a %d-byte encode buffer, bound %d", after, cap(conn.rbuf), cap(conn.wbuf), wire.MaxKeptBuf)
		}
	}
	kept("a Store")
	ct, err := conn.FetchAll("emp")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wire.EncodeTable(nil, ct)); n <= wire.MaxKeptBuf {
		t.Fatalf("fixture table encodes to %d bytes, not past the %d-byte bound", n, wire.MaxKeptBuf)
	}
	kept("a FetchAll")
	// Frames within the bound are still read and encoded in place.
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")}); err != nil {
		t.Fatal(err)
	}
	if conn.rbuf == nil || conn.wbuf == nil {
		t.Fatal("a read within the bound left the Conn without its buffers")
	}
	kept("a read")
}

// TestConnAnswersOutliveTheNextRoundTrip: every response is read into
// the Conn's one read buffer, so anything decoded from it that aliased
// the payload would change under the next round trip. A full fetch first
// grows the buffer, so every later answer lands on the bytes of the one
// before. Answer A — plain and verified — is kept across larger reads,
// an insert and another fetch on the same Conn, and must still encode to
// what it encoded to when it was decoded; a shipped log chunk is kept
// across the next.
func TestConnAnswersOutliveTheNextRoundTrip(t *testing.T) {
	st, err := storage.Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	conn := startPipe(t, st)
	scheme := newScheme(t)
	db := NewDB(conn, scheme, "emp")
	tab := relation.NewTable(empSchema())
	for _, tp := range bigEmpTuples(300) {
		if err := tab.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	read := func(flags byte, col string, v relation.Value) (query.Response, []byte) {
		t.Helper()
		q, err := scheme.EncryptQuery(relation.Eq{Column: col, Value: v})
		if err != nil {
			t.Fatal(err)
		}
		resps, err := conn.Read("emp", flags, [][]*ph.EncryptedQuery{{q}})
		if err != nil {
			t.Fatal(err)
		}
		if len(resps[0].Matches().Tuples) == 0 {
			t.Fatalf("%s = %v matched nothing", col, v)
		}
		return resps[0], query.EncodeResponses(nil, flags, resps)
	}
	if _, err := conn.FetchAll("emp"); err != nil {
		t.Fatal(err)
	}
	plainA, wantPlain := read(0, "name", relation.String("emp0007"))
	verifiedA, wantVerified := read(wire.ReadFlagVerified, "name", relation.String("emp0008"))

	read(0, "dept", relation.String("IT"))
	read(wire.ReadFlagVerified, "dept", relation.String("OPS"))
	ins, err := scheme.EncryptTable(empTable())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Insert("emp", ins.Tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.FetchAll("emp"); err != nil {
		t.Fatal(err)
	}
	if got := query.EncodeResponses(nil, 0, []query.Response{plainA}); !bytes.Equal(got, wantPlain) {
		t.Fatal("plain answer A changed under later round trips on its Conn")
	}
	if got := query.EncodeResponses(nil, wire.ReadFlagVerified, []query.Response{verifiedA}); !bytes.Equal(got, wantVerified) {
		t.Fatal("verified answer A (tuples, proof or root) changed under later round trips on its Conn")
	}

	// The log holds the store, then the insert: ship the insert alone,
	// then the whole log over the same buffer.
	whole, err := conn.ShipLog(0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	wholeLog := bytes.Clone(whole.Log)
	last, err := conn.ShipLog(whole.Epoch, whole.Head-1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(last.Log)
	if len(want) == 0 || bytes.HasPrefix(wholeLog, want) {
		t.Fatalf("fixture: the last record (%d bytes) is not distinct from the log's start", len(want))
	}
	if _, err := conn.ShipLog(whole.Epoch, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last.Log, want) {
		t.Fatal("a shipped log chunk changed under the next ShipLog on its Conn")
	}
}

// cannedConn is a Conn whose peer answers every command with resp, so
// an allocation count is the Conn's own, with no server's in it.
func cannedConn(t *testing.T, resp wire.Frame) *Conn {
	t.Helper()
	cliSide, peer := net.Pipe()
	go func() {
		r, w := bufio.NewReader(peer), bufio.NewWriter(peer)
		var buf []byte
		for {
			var err error
			if _, buf, err = wire.ReadFrameReuse(r, buf); err != nil {
				return
			}
			if wire.WriteFrame(w, resp) != nil {
				return
			}
		}
	}()
	conn := NewConn(cliSide)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// fakeTuples are k ciphertext-shaped tuples: a 16-byte identifier and
// one 8-byte word each.
func fakeTuples(k int) []ph.EncryptedTuple {
	out := make([]ph.EncryptedTuple, k)
	for i := range out {
		out[i] = ph.EncryptedTuple{ID: bytes.Repeat([]byte{byte(i)}, 16), Words: [][]byte{bytes.Repeat([]byte{byte(i >> 8)}, 8)}}
	}
	return out
}

// TestConnSteadyStateAllocs: once warm, a Conn allocates per message,
// not per tuple — an insert of 256 tuples costs what one of 4 does, and
// a 1,000-tuple answer what a 10-tuple one does — and its transport adds
// nothing: an insert allocates nothing at all, a read only what decoding
// its answer does. Both answers fit within wire.MaxKeptBuf; one past it costs
// the one buffer more it is read into.
func TestConnSteadyStateAllocs(t *testing.T) {
	count := func(conn *Conn, op func(*Conn)) float64 {
		op(conn) // warm-up: the Conn's buffers grow to the message
		return testing.AllocsPerRun(50, func() { op(conn) })
	}

	ack := wire.AppendU64(wire.AppendU32(wire.AppendU32(nil, 0), 1), 1)
	inserts := map[int]float64{}
	for _, k := range []int{4, 256} {
		tuples := fakeTuples(k)
		inserts[k] = count(cannedConn(t, wire.Frame{Type: wire.RespInserted, Payload: ack}), func(c *Conn) {
			if _, err := c.Insert("emp", tuples); err != nil {
				t.Fatal(err)
			}
		})
	}
	if inserts[4] != 0 || inserts[256] != 0 {
		t.Fatalf("Conn.Insert allocates %v objects for 4 tuples, %v for 256, want 0", inserts[4], inserts[256])
	}

	plans := [][]*ph.EncryptedQuery{{{SchemeID: "test", Token: []byte("token")}}}
	reads := map[int]float64{}
	for _, k := range []int{10, 1000} {
		tuples := fakeTuples(k)
		positions := make([]int, k)
		for i := range positions {
			positions[i] = i
		}
		answer := query.EncodeResponses(nil, 0, []query.Response{{Result: &ph.Result{Positions: positions, Tuples: tuples}}})
		if len(answer) > wire.MaxKeptBuf {
			t.Fatalf("fixture: a %d-tuple answer of %d bytes is past the %d-byte bound", k, len(answer), wire.MaxKeptBuf)
		}
		reads[k] = count(cannedConn(t, wire.Frame{Type: wire.RespResult, Payload: answer}), func(c *Conn) {
			resps, err := c.Read("emp", 0, plans)
			if err != nil || len(resps[0].Result.Tuples) != k {
				t.Fatalf("read: %v", err)
			}
		})
		decode := testing.AllocsPerRun(50, func() { query.DecodeResponses(answer) })
		if reads[k] != decode {
			t.Fatalf("Conn.Read of a %d-tuple answer allocates %v objects, decoding the answer %v", k, reads[k], decode)
		}
	}
	if reads[10] != reads[1000] {
		t.Fatalf("Conn.Read allocates %v objects for a 10-tuple answer, %v for a 1,000-tuple one", reads[10], reads[1000])
	}
}
