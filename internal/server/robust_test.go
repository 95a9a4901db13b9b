package server

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// TestWedgedConnectionReaped is the satellite deadline test: a peer that
// connects and never sends a complete frame must be disconnected by the
// idle deadline instead of pinning its handler goroutine forever.
func TestWedgedConnectionReaped(t *testing.T) {
	s := NewWithOptions(testStore(t), nil, Options{IdleTimeout: 50 * time.Millisecond})
	client, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		s.ServeConn(srv)
		close(done)
	}()
	// Send half a frame header, then wedge.
	if _, err := client.Write([]byte{0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wedged connection was never reaped")
	}
	client.Close()
}

// TestIdleTimeoutSparesActivePeers: consecutive requests inside the
// deadline keep the connection alive — the deadline is per-frame, not
// per-connection.
func TestIdleTimeoutSparesActivePeers(t *testing.T) {
	s := NewWithOptions(testStore(t), nil, Options{IdleTimeout: 200 * time.Millisecond})
	client, srv := net.Pipe()
	defer client.Close()
	go s.ServeConn(srv)
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		if err := wire.WriteFrame(client, wire.Frame{Type: wire.CmdList}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		f, err := wire.ReadFrame(client)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if f.Type != wire.RespList {
			t.Fatalf("response %d type %#x", i, f.Type)
		}
	}
}

func TestMaxConnsRefusesExcess(t *testing.T) {
	s := NewWithOptions(testStore(t), nil, Options{MaxConns: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	dial := func() net.Conn {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Two live connections fill the house (prove liveness with a request).
	c1, c2 := dial(), dial()
	defer c1.Close()
	defer c2.Close()
	for _, c := range []net.Conn{c1, c2} {
		if err := wire.WriteFrame(c, wire.Frame{Type: wire.CmdList}); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(c); err != nil {
			t.Fatal(err)
		}
	}
	// The third is closed without service: its first read reports EOF.
	c3 := dial()
	defer c3.Close()
	if err := wire.WriteFrame(c3, wire.Frame{Type: wire.CmdList}); err == nil {
		c3.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadFrame(c3); err == nil {
			t.Fatal("third connection was served past MaxConns=2")
		}
	}
	// Freeing a slot lets the next connection in.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c4 := dial()
		err := wire.WriteFrame(c4, wire.Frame{Type: wire.CmdList})
		if err == nil {
			_, err = wire.ReadFrame(c4)
		}
		c4.Close()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing a connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReadOnlyRejectsMutations(t *testing.T) {
	s := NewWithOptions(testStore(t), nil, Options{ReadOnly: true})
	for _, f := range []wire.Frame{
		storeFrame("emp", encTable(1)),
		{Type: wire.CmdInsert, Payload: wire.AppendU32(wire.AppendString(nil, "emp"), 0)},
		{Type: wire.CmdInsertStamped, Payload: wire.AppendU32(wire.AppendString(nil, "emp"), 0)},
		{Type: wire.CmdDrop, Payload: wire.AppendString(nil, "emp")},
	} {
		if resp := s.dispatch(f, nil); resp.Type != wire.RespError {
			t.Fatalf("read-only server answered %#x to mutation %#x", resp.Type, f.Type)
		}
	}
	// Reads still work.
	if resp := s.dispatch(wire.Frame{Type: wire.CmdList}, nil); resp.Type != wire.RespList {
		t.Fatalf("read-only server refused CmdList: %#x", resp.Type)
	}
}

func TestShipLogCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(st, nil)
	if resp := s.dispatch(storeFrame("emp", encTable(3)), nil); resp.Type != wire.RespOK {
		t.Fatalf("store: %#x %s", resp.Type, resp.Payload)
	}

	// ship returns how many whole records the chunk carries, counted by
	// applying it to a scratch store.
	ship := func(epoch, from uint64, maxBytes uint32) (recs int, gotEpoch, start, head uint64) {
		t.Helper()
		payload := wire.AppendU64(nil, epoch)
		payload = wire.AppendU64(payload, from)
		payload = wire.AppendU32(payload, maxBytes)
		resp := s.dispatch(wire.Frame{Type: wire.CmdShipLog, Payload: payload}, nil)
		if resp.Type != wire.RespLogChunk {
			t.Fatalf("ship response %#x: %s", resp.Type, resp.Payload)
		}
		r := wire.NewBuffer(resp.Payload)
		if gotEpoch, err = r.U64(); err != nil {
			t.Fatal(err)
		}
		if start, err = r.U64(); err != nil {
			t.Fatal(err)
		}
		if head, err = r.U64(); err != nil {
			t.Fatal(err)
		}
		log, err := r.Bytes()
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		if recs, err = storage.NewMemory().ApplyShipped(log); err != nil {
			t.Fatal(err)
		}
		return recs, gotEpoch, start, head
	}

	// Bootstrap from an unknown cursor.
	recs, epoch, start, head := ship(0, 0, 1<<20)
	if start != 0 || head != 1 || recs != 1 {
		t.Fatalf("bootstrap: start %d head %d recs %d", start, head, recs)
	}
	if epoch != st.LogEpoch() {
		t.Fatalf("epoch %d, store says %d", epoch, st.LogEpoch())
	}
	// Caught-up cursor ships nothing.
	recs, _, start, head = ship(epoch, 1, 1<<20)
	if recs != 0 || start != 1 || head != 1 {
		t.Fatalf("caught up: start %d head %d recs %d", start, head, recs)
	}
	// A hostile cursor is clamped to the bootstrap stream.
	_, _, start, _ = ship(epoch, 1<<50, 1<<20)
	if start != 0 {
		t.Fatalf("hostile cursor served from %d, want 0", start)
	}
	// A truncated request frame is an error, not a panic.
	if resp := s.dispatch(wire.Frame{Type: wire.CmdShipLog, Payload: []byte{1, 2}}, nil); resp.Type != wire.RespError {
		t.Fatalf("truncated ship request answered %#x", resp.Type)
	}
}
