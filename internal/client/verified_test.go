package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"log"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/authindex"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// frameCounter wraps the client side of a pipe and tallies outbound
// frames by command byte, reassembling the stream so buffering and write
// chunking cannot hide a frame, and inbound (response) bytes.
type frameCounter struct {
	net.Conn
	mu       sync.Mutex
	buf      []byte
	counts   map[byte]int
	received int
}

func (f *frameCounter) Read(p []byte) (int, error) {
	n, err := f.Conn.Read(p)
	f.mu.Lock()
	f.received += n
	f.mu.Unlock()
	return n, err
}

// responseBytes returns how many bytes the server has sent so far.
func (f *frameCounter) responseBytes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.received
}

func (f *frameCounter) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.buf = append(f.buf, p...)
	for {
		if len(f.buf) < 5 {
			break
		}
		n := binary.BigEndian.Uint32(f.buf[:4])
		if len(f.buf) < 4+int(n) {
			break
		}
		f.counts[f.buf[4]]++
		f.buf = f.buf[4+int(n):]
	}
	f.mu.Unlock()
	return f.Conn.Write(p)
}

func (f *frameCounter) count(cmd byte) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[cmd]
}

// total returns how many frames of any command were sent.
func (f *frameCounter) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.counts {
		n += c
	}
	return n
}

// startCountingPipe is startPipe with a frame counter on the client side.
func startCountingPipe(t *testing.T, store *storage.Store) (*Conn, *frameCounter) {
	t.Helper()
	srv := server.New(store, log.New(testWriter{t}, "", 0))
	cliSide, srvSide := net.Pipe()
	go srv.ServeConn(srvSide)
	fc := &frameCounter{Conn: cliSide, counts: make(map[byte]int)}
	conn := NewConn(fc)
	t.Cleanup(func() { conn.Close() })
	return conn, fc
}

// serverRoot rebuilds the authoritative root from the server's stored
// table, for comparing against the client's incrementally advanced pin.
func serverRoot(t *testing.T, st *storage.Store, name string) ([]byte, int) {
	t.Helper()
	full, err := st.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return authindex.Build(full).Root(), len(full.Tuples)
}

// TestInsertAdvancesRootIncrementally: with a pinned root, inserts must
// advance the pin from local leaf hashes and the placement ack — zero
// CmdFetchAll round trips — and the advanced root must equal the
// authoritative rebuild of the server table after every step.
func TestInsertAdvancesRootIncrementally(t *testing.T) {
	st := storage.NewMemory()
	conn, fc := startCountingPipe(t, st)
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Insert(relation.Tuple{
			relation.String("extra"), relation.String("OPS"), relation.Int(int64(1000 + i)),
		}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		root, tuples := db.Root()
		wantRoot, wantTuples := serverRoot(t, st, "emp")
		if !bytes.Equal(root, wantRoot) || tuples != wantTuples {
			t.Fatalf("after insert %d: client root diverged from server rebuild (%d vs %d tuples)", i, tuples, wantTuples)
		}
	}
	if n := fc.count(wire.CmdFetchAll); n != 0 {
		t.Fatalf("incremental root advance still downloaded the table %d times", n)
	}
	// And the advanced pin actually verifies answers.
	got, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("OPS")})
	if err != nil {
		t.Fatalf("verified select under advanced root: %v", err)
	}
	if got.Len() != 5 {
		t.Fatalf("select returned %d rows, want 5", got.Len())
	}
}

// TestVerifiedQueryRequiresRoot: the explicit verified entry point must
// refuse to run unpinned rather than silently skip verification.
func TestVerifiedQueryRequiresRoot(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	db.PinRoot(nil, 0)
	if _, err := db.VerifiedQuery(relation.Eq{Column: "dept", Value: relation.String("HR")}); err == nil {
		t.Fatal("VerifiedQuery without a pinned root succeeded")
	}
}

// TestPinRootInsertRebuildsFrontierVerified: after a restart-style
// PinRoot (anchor only), the first insert rebuilds the frontier from one
// fetch verified against the pin; later inserts are fetch-free.
func TestPinRootInsertRebuildsFrontierVerified(t *testing.T) {
	st := storage.NewMemory()
	scheme := newScheme(t)
	{
		conn := startPipe(t, st)
		db := NewDB(conn, scheme, "emp")
		if err := db.CreateTable(empTable()); err != nil {
			t.Fatal(err)
		}
	}
	// "Restart": fresh client, anchor only.
	conn, fc := startCountingPipe(t, st)
	db2 := NewDB(conn, scheme, "emp")
	{
		prev := NewDB(startPipe(t, st), scheme, "emp")
		if err := prev.RepinRoot(); err != nil {
			t.Fatal(err)
		}
		root, tuples := prev.Root()
		db2.PinRoot(root, tuples)
	}
	for i := 0; i < 3; i++ {
		if err := db2.Insert(relation.Tuple{
			relation.String("late"), relation.String("IT"), relation.Int(int64(i)),
		}); err != nil {
			t.Fatalf("insert %d after PinRoot: %v", i, err)
		}
	}
	if n := fc.count(wire.CmdFetchAll); n != 1 {
		t.Fatalf("frontier rebuild fetched the table %d times, want exactly 1", n)
	}
	root, tuples := db2.Root()
	wantRoot, wantTuples := serverRoot(t, st, "emp")
	if !bytes.Equal(root, wantRoot) || tuples != wantTuples {
		t.Fatal("root diverged after PinRoot + incremental inserts")
	}
}

// TestPinRootMismatchRefusesFrontierRebuild: the frontier rebuild is
// verified — a table that does not hash to the pinned root must not be
// silently adopted.
func TestPinRootMismatchRefusesFrontierRebuild(t *testing.T) {
	st := storage.NewMemory()
	conn := startPipe(t, st)
	scheme := newScheme(t)
	db := NewDB(conn, scheme, "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	bogus := make([]byte, authindex.HashSize)
	db.PinRoot(bogus, 3)
	err := db.Insert(relation.Tuple{
		relation.String("x"), relation.String("IT"), relation.Int(1),
	})
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("frontier rebuild against a mismatched pin not refused: %v", err)
	}
}

// TestInsertDetectsForeignWriter: an append from another client moves
// the table under the pin; the next insert must surface that instead of
// silently adopting leaves it cannot hash, and RepinRoot must recover.
func TestInsertDetectsForeignWriter(t *testing.T) {
	st := storage.NewMemory()
	conn := startPipe(t, st)
	scheme := newScheme(t)
	db := NewDB(conn, scheme, "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	// Foreign writer: raw inserts over a second connection.
	other := startPipe(t, st)
	foreign, err := NewDB(other, scheme, "emp").encryptTuples([]relation.Tuple{
		{relation.String("evil"), relation.String("OPS"), relation.Int(666)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Insert("emp", foreign.Tuples); err != nil {
		t.Fatal(err)
	}
	err = db.Insert(relation.Tuple{
		relation.String("mine"), relation.String("HR"), relation.Int(1),
	})
	if err == nil || !strings.Contains(err.Error(), "RepinRoot") {
		t.Fatalf("foreign write not detected on insert: %v", err)
	}
	if err := db.RepinRoot(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(relation.Tuple{
		relation.String("mine"), relation.String("HR"), relation.Int(2),
	}); err != nil {
		t.Fatalf("insert after RepinRoot: %v", err)
	}
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")}); err != nil {
		t.Fatalf("verified select after recovery: %v", err)
	}
}

// TestInsertBatchForeignWriterNoSilentRepin: when the batch's acks
// cannot contiguously extend the frontier (a foreign writer moved the
// table), InsertBatch must keep the old pin and return an error naming
// RepinRoot — never silently adopt the server's current table as the
// new trust anchor.
func TestInsertBatchForeignWriterNoSilentRepin(t *testing.T) {
	st := storage.NewMemory()
	srv := server.New(st, nil)
	conn := startPipe(t, st)
	scheme := newScheme(t)
	db := NewDB(conn, scheme, "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	pinnedRoot, _ := db.Root()
	// Foreign writer sneaks in between the frontier check and the batch:
	// a dialer that appends a foreign tuple before handing out the first
	// worker connection.
	var once sync.Once
	dial := func() (*Conn, error) {
		var ferr error
		once.Do(func() {
			other := startPipe(t, st)
			foreign, err := NewDB(other, scheme, "emp").encryptTuples([]relation.Tuple{
				{relation.String("evil"), relation.String("OPS"), relation.Int(666)},
			})
			if err != nil {
				ferr = err
				return
			}
			_, ferr = other.Insert("emp", foreign.Tuples)
		})
		if ferr != nil {
			return nil, ferr
		}
		c, s := net.Pipe()
		go srv.ServeConn(s)
		return NewConn(c), nil
	}
	err := db.InsertBatch(dial, 2, 5, bigEmpTuples(20)...)
	if err == nil || !strings.Contains(err.Error(), "RepinRoot") {
		t.Fatalf("foreign writer during batch not surfaced: %v", err)
	}
	root, _ := db.Root()
	if !bytes.Equal(root, pinnedRoot) {
		t.Fatal("InsertBatch replaced the pinned root despite failing to advance it")
	}
	if err := db.RepinRoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")}); err != nil {
		t.Fatalf("verified select after explicit RepinRoot: %v", err)
	}
}

// TestInsertBatchAdvancesRootWithoutFetch: the parallel batch path must
// reconstruct the server-side leaf order from the per-chunk placement
// acks — no full fetch — and end with a pin matching the rebuild.
func TestInsertBatchAdvancesRootWithoutFetch(t *testing.T) {
	st := storage.NewMemory()
	srv := server.New(st, nil)
	cliSide, srvSide := net.Pipe()
	go srv.ServeConn(srvSide)
	fc := &frameCounter{Conn: cliSide, counts: make(map[byte]int)}
	conn := NewConn(fc)
	t.Cleanup(func() { conn.Close() })

	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	// Every worker connection gets its own counting wrapper so no
	// CmdFetchAll can hide on a side channel. Dial runs on concurrent
	// workers, so the counter list is mutex-guarded.
	var countersMu sync.Mutex
	counters := []*frameCounter{fc}
	dialCounting := func() (*Conn, error) {
		c, s := net.Pipe()
		go srv.ServeConn(s)
		w := &frameCounter{Conn: c, counts: make(map[byte]int)}
		countersMu.Lock()
		counters = append(counters, w)
		countersMu.Unlock()
		return NewConn(w), nil
	}
	if err := db.InsertBatch(dialCounting, 3, 7, bigEmpTuples(40)...); err != nil {
		t.Fatal(err)
	}
	fetches := 0
	for _, c := range counters {
		fetches += c.count(wire.CmdFetchAll)
	}
	if fetches != 0 {
		t.Fatalf("batch insert with placement acks still fetched the table %d times", fetches)
	}
	root, tuples := db.Root()
	wantRoot, wantTuples := serverRoot(t, st, "emp")
	if !bytes.Equal(root, wantRoot) || tuples != wantTuples {
		t.Fatalf("batch-advanced root diverged from rebuild (%d vs %d tuples)", tuples, wantTuples)
	}
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")}); err != nil {
		t.Fatalf("verified select after batch: %v", err)
	}
}

// overcountingDialer returns a dial function whose connections reach srv
// through a proxy that adds one to the Count of every placement ack: a
// server claiming more tuples landed than the client sent.
func overcountingDialer(srv *server.Server) func() (*Conn, error) {
	return func() (*Conn, error) {
		srvCli, srvSide := net.Pipe()
		go srv.ServeConn(srvSide)
		cliSide, proxySide := net.Pipe()
		go func() {
			defer srvCli.Close()
			pr, pw := bufio.NewReader(proxySide), bufio.NewWriter(proxySide)
			sr, sw := bufio.NewReader(srvCli), bufio.NewWriter(srvCli)
			for {
				f, err := wire.ReadFrame(pr)
				if err != nil || wire.WriteFrame(sw, f) != nil {
					return
				}
				resp, err := wire.ReadFrame(sr)
				if err != nil {
					return
				}
				if resp.Type == wire.RespInserted {
					count := binary.BigEndian.Uint32(resp.Payload[4:8])
					binary.BigEndian.PutUint32(resp.Payload[4:8], count+1)
				}
				if wire.WriteFrame(pw, resp) != nil {
					return
				}
			}
		}()
		return NewConn(cliSide), nil
	}
}

// TestInsertRefusesOvercountedAck: a placement ack must count exactly
// the tuples sent. An ack claiming one more is refused — the client
// cannot hash a leaf it never sent — naming RepinRoot, with the pin left
// where it was.
func TestInsertRefusesOvercountedAck(t *testing.T) {
	st := storage.NewMemory()
	conn, err := overcountingDialer(server.New(st, nil))()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	pinned, n := db.Root()
	err = db.Insert(relation.Tuple{relation.String("extra"), relation.String("OPS"), relation.Int(1)})
	if err == nil || !strings.Contains(err.Error(), "RepinRoot") {
		t.Fatalf("overcounted ack accepted: %v", err)
	}
	if root, m := db.Root(); !bytes.Equal(root, pinned) || m != n {
		t.Fatal("a refused ack moved the pin")
	}
	if err := db.RepinRoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("OPS")}); err != nil {
		t.Fatalf("verified select after RepinRoot: %v", err)
	}
}

// TestInsertBatchRefusesOvercountedAck: the same rule per chunk — chunks
// whose bases tile the frontier exactly are still refused when their
// acks claim more tuples than were sent.
func TestInsertBatchRefusesOvercountedAck(t *testing.T) {
	st := storage.NewMemory()
	db := NewDB(startPipe(t, st), newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	pinned, n := db.Root()
	err := db.InsertBatch(overcountingDialer(server.New(st, nil)), 2, 5, bigEmpTuples(20)...)
	if err == nil || !strings.Contains(err.Error(), "RepinRoot") {
		t.Fatalf("overcounted chunk acks accepted: %v", err)
	}
	if root, m := db.Root(); !bytes.Equal(root, pinned) || m != n {
		t.Fatal("refused chunk acks moved the pin")
	}
}
