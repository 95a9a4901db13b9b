package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

func testStore(t *testing.T) *storage.Store {
	t.Helper()
	return storage.NewMemory()
}

// fixtureChecksumLen is the SWP checksum width m of every fixture
// table: a per-slot false-positive rate of 2^-64 ≈ 5.4·10^-20. The
// package's tests evaluate fixture queries over far fewer than 10^10
// word slots, so a false positive anywhere in a run has probability
// below 10^-9, and assertions on exact positions cannot flake on one
// (the default m = 2 is 2^-16 a slot).
const fixtureChecksumLen = 8

// fixturePH is the instance of the paper's construction every fixture
// table and query of the package's tests is encrypted under, with a
// fixed key: a parity and an id column, both of width 8, so every word
// is 10 bytes, room for m = 8.
var fixturePH = sync.OnceValue(func() *core.PH {
	schema := relation.MustSchema("fix",
		relation.Column{Name: "parity", Type: relation.TypeString, Width: 8},
		relation.Column{Name: "id", Type: relation.TypeInt, Width: 8},
	)
	p, err := core.New(crypto.KeyFromBytes([]byte("server fixtures")), schema, core.Options{ChecksumLen: fixtureChecksumLen})
	if err != nil {
		panic(err)
	}
	return p
})

// fixtureTable encrypts n tuples — "even" or "odd", then i — and puts
// tuple i back at position i, undoing EncryptTable's shuffle, so a
// query's positions are its plaintext matches.
func fixtureTable(n int) *ph.EncryptedTable { return encryptFixture(fixturePH(), n) }

// encryptFixture is fixtureTable under the instance p, whose schema is
// a parity and an id column.
func encryptFixture(p *core.PH, n int) *ph.EncryptedTable {
	plain := relation.NewTable(p.Schema())
	for i := range n {
		parity := "odd"
		if i%2 == 0 {
			parity = "even"
		}
		plain.MustInsert(relation.String(parity), relation.Int(int64(i)))
	}
	et, err := p.EncryptTable(plain)
	if err != nil {
		panic(err)
	}
	dec, err := p.DecryptTable(et)
	if err != nil {
		panic(err)
	}
	tuples := make([]ph.EncryptedTuple, n)
	for j, tp := range dec.Tuples() {
		tuples[tp[1].Integer()] = et.Tuples[j]
	}
	et.Tuples = tuples
	return et
}

// encTable builds a table of n tuples to store; tuple i has id i.
func encTable(n int) *ph.EncryptedTable { return fixtureTable(n) }

func storeFrame(name string, et *ph.EncryptedTable) wire.Frame {
	payload := wire.AppendString(nil, name)
	payload = wire.EncodeTable(payload, et)
	return wire.Frame{Type: wire.CmdStore, Payload: payload}
}

func TestDispatchStoreAndFetch(t *testing.T) {
	s := New(testStore(t), nil)
	resp := s.dispatch(storeFrame("emp", encTable(3)), nil)
	if resp.Type != wire.RespOK {
		t.Fatalf("store response %#x: %s", resp.Type, resp.Payload)
	}
	resp = s.dispatch(wire.Frame{Type: wire.CmdFetchAll, Payload: wire.AppendString(nil, "emp")}, nil)
	if resp.Type != wire.RespTable {
		t.Fatalf("fetch response %#x", resp.Type)
	}
	et, err := wire.DecodeTable(wire.NewBuffer(resp.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if len(et.Tuples) != 3 {
		t.Fatalf("fetched %d tuples", len(et.Tuples))
	}
}

// TestDispatchUnknownCommand: an unknown command byte is an error
// answer whatever the payload, and that includes the retired bytes
// 0x0B, 0x0F and 0x10, which a peer built before their retirement may
// still send.
func TestDispatchUnknownCommand(t *testing.T) {
	s := New(testStore(t), nil)
	if resp := s.dispatch(storeFrame("emp", encTable(1)), nil); resp.Type != wire.RespOK {
		t.Fatal("store failed")
	}
	insert := wire.EncodeInsert(nil, "emp", encTable(1).Tuples)
	for _, cmd := range []byte{0x7F, 0x0B, 0x0F, 0x10} {
		for _, payload := range [][]byte{nil, insert} {
			if resp := s.dispatch(wire.Frame{Type: cmd, Payload: payload}, nil); resp.Type != wire.RespError {
				t.Fatalf("unknown command %#x answered %#x", cmd, resp.Type)
			}
		}
	}
}

func TestDispatchMalformedPayload(t *testing.T) {
	s := New(testStore(t), nil)
	for _, cmd := range []byte{wire.CmdStore, wire.CmdInsert, wire.CmdQuery, wire.CmdFetchAll,
		wire.CmdDrop} {
		resp := s.dispatch(wire.Frame{Type: cmd, Payload: []byte{0xFF}}, nil)
		if resp.Type != wire.RespError {
			t.Errorf("command %#x with garbage payload returned %#x, want error", cmd, resp.Type)
		}
	}
}

func TestServeConnClosesOnGarbage(t *testing.T) {
	s := New(testStore(t), nil)
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(srv)
	}()
	// A frame whose declared size exceeds the maximum must terminate the
	// connection, not hang or crash.
	cli.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("server did not close the connection on a malformed frame")
	}
	cli.Close()
}

// TestServeConnKeepsNoBufferPastTheBound: a server connection reuses
// its read buffer, but one a table upload past wire.MaxKeptBuf grew
// must not stay pinned for the connection's life (the bound a
// client.Conn keeps, TestConnKeepsNoBufferPastTheBound in client).
func TestServeConnKeepsNoBufferPastTheBound(t *testing.T) {
	s := New(testStore(t), nil)
	cli, srv := net.Pipe()
	defer cli.Close()
	c := newServerConn(srv)
	serve := func(f wire.Frame, want byte) {
		t.Helper()
		errs := make(chan error, 1)
		go func() {
			err := wire.WriteFrame(cli, f)
			if err == nil {
				var resp wire.Frame
				if resp, err = wire.ReadFrame(cli); err == nil && resp.Type != want {
					err = fmt.Errorf("command %#x answered %#x: %s", f.Type, resp.Type, resp.Payload)
				}
			}
			errs <- err
		}()
		if !s.serveFrame(c) {
			t.Fatalf("command %#x ended the connection", f.Type)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	store := storeFrame("emp", encTable(30000))
	if len(store.Payload) <= wire.MaxKeptBuf {
		t.Fatalf("fixture store frame is %d bytes, not past the %d-byte bound", len(store.Payload), wire.MaxKeptBuf)
	}
	serve(store, wire.RespOK)
	if cap(c.read) > wire.MaxKeptBuf {
		t.Fatalf("after a %d-byte store the connection keeps a %d-byte read buffer, bound %d", len(store.Payload), cap(c.read), wire.MaxKeptBuf)
	}
	// A frame within the bound is still read in place and kept.
	serve(wire.Frame{Type: wire.CmdList}, wire.RespList)
	serve(insertFrame("emp", encTable(4).Tuples), wire.RespInserted)
	if c.read == nil || cap(c.read) > wire.MaxKeptBuf {
		t.Fatalf("after an insert the connection keeps a %d-byte read buffer (nil: %v)", cap(c.read), c.read == nil)
	}
}

func TestCloseIsIdempotentAndStopsServe(t *testing.T) {
	s := New(testStore(t), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return after close")
	}
	// Serving again on a closed server must fail fast.
	if err := s.Serve(l); err == nil {
		t.Fatal("serve on closed server succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	s := New(testStore(t), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			name := string(rune('a' + i))
			f := storeFrame(name, encTable(2))
			if err := wire.WriteFrame(conn, f); err != nil {
				errs <- err
				return
			}
			resp, err := wire.ReadFrame(conn)
			if err != nil {
				errs <- err
				return
			}
			if resp.Type != wire.RespOK {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// insertFrame builds a CmdInsert frame.
func insertFrame(name string, tuples []ph.EncryptedTuple) wire.Frame {
	return wire.Frame{Type: wire.CmdInsert, Payload: wire.EncodeInsert(nil, name, tuples)}
}

// TestInsertAckCompat: every CmdInsert is acked with its placement
// (RespInserted), whether or not the sending client keeps a pinned
// root, and consecutive acks tile the table.
func TestInsertAckCompat(t *testing.T) {
	s := New(testStore(t), nil)
	if resp := s.dispatch(storeFrame("emp", encTable(2)), nil); resp.Type != wire.RespOK {
		t.Fatal("store failed")
	}
	for i, n := range []int{1, 3} {
		resp := s.dispatch(insertFrame("emp", encTable(n).Tuples), nil)
		if resp.Type != wire.RespInserted {
			t.Fatalf("CmdInsert answered %#x, want RespInserted", resp.Type)
		}
		r := wire.NewBuffer(resp.Payload)
		base, _ := r.U32()
		count, _ := r.U32()
		version, _ := r.U64()
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if want := 2 + i; int(base) != want || int(count) != n || version == 0 {
			t.Fatalf("insert %d acked base %d count %d version %d, want base %d count %d", i, base, count, version, want, n)
		}
	}
}
