package client

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"net"
	"strings"
	"testing"

	"repro/internal/authindex"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// conjDB uploads a slightly larger employee table and returns a DB over
// a frame-counting pipe.
func conjDB(t *testing.T, pin bool) (*DB, *frameCounter, *storage.Store) {
	t.Helper()
	store := storage.NewMemory()
	conn, fc := startCountingPipe(t, store)
	db := NewDB(conn, newScheme(t), "emp")
	tbl := relation.NewTable(empSchema())
	rows := []struct {
		name, dept string
		salary     int64
	}{
		{"Montgomery", "HR", 7500},
		{"Ada", "IT", 9100},
		{"Grace", "HR", 8800},
		{"Barbara", "HR", 7500},
		{"Alan", "IT", 7500},
		{"Edsger", "OPS", 7500},
	}
	for _, r := range rows {
		tbl.MustInsert(relation.String(r.name), relation.String(r.dept), relation.Int(r.salary))
	}
	if err := db.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if !pin {
		db.PinRoot(nil, 0)
	}
	return db, fc, store
}

// sortedRows renders a table in a deterministic order for comparison.
func sortedRows(t *testing.T, tbl *relation.Table) string {
	t.Helper()
	return tbl.Sorted().String()
}

// shippedCounter is a scheme that tallies the answer tuples the client
// decrypts: every tuple a read ships.
type shippedCounter struct {
	ph.Scheme
	tuples int
}

func (s *shippedCounter) DecryptResult(q relation.Eq, r *ph.Result) (*relation.Table, error) {
	s.tuples += len(r.Tuples)
	return s.Scheme.DecryptResult(q, r)
}

// TestConjPushdownShipsTheIntersection: on a conjunction of a ~50 %
// conjunct and a ~0.5 % one, the one-plan pushdown answers exactly what
// the client-side arm (SelectMany, then relation.Intersect) and the
// plaintext selection answer, while receiving at most a fifth of that
// arm's response bytes and answer tuples: the arm pays for its least
// selective conjunct, the pushdown only for the intersection.
func TestConjPushdownShipsTheIntersection(t *testing.T) {
	schema := relation.MustSchema("pairs",
		relation.Column{Name: "grp", Type: relation.TypeString, Width: 1},
		relation.Column{Name: "code", Type: relation.TypeString, Width: 4},
	)
	rng := rand.New(rand.NewSource(17))
	plain := relation.NewTable(schema)
	for i := 0; i < 2000; i++ {
		plain.MustInsert(relation.String([]string{"A", "B"}[rng.Intn(2)]), relation.String(fmt.Sprintf("c%03d", rng.Intn(200))))
	}
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.New(key, schema, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shipped := &shippedCounter{Scheme: scheme}
	conn, fc := startCountingPipe(t, storage.NewMemory())
	db := NewDB(conn, shipped, "pairs")
	if err := db.CreateTable(plain); err != nil {
		t.Fatal(err)
	}
	db.PinRoot(nil, 0)

	// The first row's values, so the intersection is never empty.
	first := plain.Tuple(0)
	conj := []relation.Eq{{Column: "grp", Value: first[0]}, {Column: "code", Value: first[1]}}
	want, err := relation.Select(plain, relation.And{Preds: []relation.Pred{conj[0], conj[1]}})
	if err != nil {
		t.Fatal(err)
	}

	bytes0, tuples0 := fc.responseBytes(), shipped.tuples
	parts, err := db.SelectMany(conj)
	if err != nil {
		t.Fatal(err)
	}
	arm, err := relation.Intersect(parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	armBytes, armTuples := fc.responseBytes()-bytes0, shipped.tuples-tuples0

	bytes0, tuples0 = fc.responseBytes(), shipped.tuples
	push, err := db.SelectConj(conj)
	if err != nil {
		t.Fatal(err)
	}
	pushBytes, pushTuples := fc.responseBytes()-bytes0, shipped.tuples-tuples0

	if got, w := sortedRows(t, push), sortedRows(t, want); got != w || sortedRows(t, arm) != w {
		t.Fatalf("answers differ:\npushdown:\n%s\nclient-side:\n%s\nplaintext:\n%s", got, sortedRows(t, arm), w)
	}
	t.Logf("response bytes %d vs %d, answer tuples %d vs %d", pushBytes, armBytes, pushTuples, armTuples)
	if 5*pushBytes > armBytes {
		t.Errorf("pushdown received %d response bytes, client-side arm %d: want at most a fifth", pushBytes, armBytes)
	}
	if 5*pushTuples > armTuples {
		t.Errorf("pushdown shipped %d answer tuples, client-side arm %d: want at most a fifth", pushTuples, armTuples)
	}
}

// TestPinnedReadsAreOneVerifiedRoundTrip: with a pinned root, every
// read shape — a one-conjunct db.Query, a conjunction, a SelectMany of k
// selects — is exactly one frame on the connection, and it is held to
// the pin: the same read fails, before decryption, once Eve swaps the
// table for a re-encryption of the same rows. (Before the one read
// request, a pinned SelectMany cost k round trips, one verified read per
// select.)
func TestPinnedReadsAreOneVerifiedRoundTrip(t *testing.T) {
	hr := relation.Eq{Column: "dept", Value: relation.String("HR")}
	it := relation.Eq{Column: "dept", Value: relation.String("IT")}
	ops := relation.Eq{Column: "dept", Value: relation.String("OPS")}
	for _, tc := range []struct {
		name string
		read func(db *DB) ([]*relation.Table, error)
		want []int
	}{
		{"single equality", func(db *DB) ([]*relation.Table, error) {
			out, err := db.Query("SELECT * FROM emp WHERE dept = 'IT'")
			return []*relation.Table{out}, err
		}, []int{2}},
		{"conjunction", func(db *DB) ([]*relation.Table, error) {
			out, err := db.Query("SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500")
			return []*relation.Table{out}, err
		}, []int{2}}, // Montgomery, Barbara
		{"SelectMany", func(db *DB) ([]*relation.Table, error) {
			return db.SelectMany([]relation.Eq{hr, it, ops})
		}, []int{3, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, fc, store := conjDB(t, true)
			before := fc.total()
			out, err := tc.read(db)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.want {
				if out[i].Len() != want {
					t.Fatalf("answer %d has %d tuples, want %d:\n%s", i, out[i].Len(), want, sortedRows(t, out[i]))
				}
			}
			if sent, reads := fc.total()-before, fc.count(wire.CmdQuery); sent != 1 || reads != 1 {
				t.Fatalf("pinned read sent %d frames, %d of them read requests; want exactly 1: %v", sent, reads, fc.counts)
			}
			plain, err := db.SelectAll()
			if err != nil {
				t.Fatal(err)
			}
			evil, err := db.scheme.EncryptTable(plain)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put("emp", evil); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.read(db); err == nil || !strings.Contains(err.Error(), "verification failed") {
				t.Fatalf("answer from a swapped table accepted: %v", err)
			}
		})
	}
}

// verifiedAnswer is the honest verified answer to a dept = <dept> select,
// straight off the wire, for the forgery tests to bend.
func verifiedAnswer(t *testing.T, db *DB, conn *Conn, dept string) *authindex.VerifiedResult {
	t.Helper()
	eq, err := db.scheme.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String(dept)})
	if err != nil {
		t.Fatal(err)
	}
	resps, err := conn.Read("emp", wire.ReadFlagVerified, [][]*ph.EncryptedQuery{{eq}})
	if err != nil {
		t.Fatal(err)
	}
	vr := resps[0].Verified
	if len(vr.Result.Positions) < 1 {
		t.Fatal("fixture query matched nothing")
	}
	if err := checkVerifiedAgainst(newPin(db.pins[0].root, db.pins[0].tuples, db.pins[0].cap), vr); err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}
	return vr
}

// TestCheckVerifiedRejectsDuplicatedPositions: an inclusion proof says a
// tuple IS at a position, not how often it may be listed — a malicious
// server repeating one tuple at its position must not inflate a verified
// result's multiset.
func TestCheckVerifiedRejectsDuplicatedPositions(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	vr := verifiedAnswer(t, db, conn, "HR")
	// Malicious inflation: repeat the first tuple and its position.
	vr.Result.Positions = append([]int{vr.Result.Positions[0]}, vr.Result.Positions...)
	vr.Result.Tuples = append([]ph.EncryptedTuple{vr.Result.Tuples[0]}, vr.Result.Tuples...)
	err := checkVerifiedAgainst(newPin(db.pins[0].root, db.pins[0].tuples, db.pins[0].cap), vr)
	if err == nil || !strings.Contains(err.Error(), "strictly ascending") {
		t.Fatalf("duplicated position accepted: %v", err)
	}
}

// wideEmpTable is empTable grown past authindex.CapNodes tuples with OPS
// staff, so its answers carry siblings below the cap level.
func wideEmpTable() *relation.Table {
	t := empTable()
	for i := t.Len(); i <= authindex.CapNodes; i++ {
		t.MustInsert(relation.String(fmt.Sprintf("ops%d", i)), relation.String("OPS"), relation.Int(int64(i)))
	}
	return t
}

// TestCheckVerifiedRejectsForgedAnswers: the other ways a server can bend
// an answer whose every tuple is genuine somewhere — each refused with an
// error that names what failed. The table is above the cap, so answers
// carry siblings to keep or drop.
func TestCheckVerifiedRejectsForgedAnswers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(t *testing.T, db *DB, conn *Conn, vr *authindex.VerifiedResult)
		want  string
	}{
		{"two tuples swapped", func(t *testing.T, db *DB, conn *Conn, vr *authindex.VerifiedResult) {
			tp := vr.Result.Tuples
			tp[0], tp[1] = tp[1], tp[0]
		}, "cap mismatch"},
		{"a tuple substituted from another position", func(t *testing.T, db *DB, conn *Conn, vr *authindex.VerifiedResult) {
			vr.Result.Tuples[0] = verifiedAnswer(t, db, conn, "IT").Result.Tuples[0]
		}, "cap mismatch"},
		{"one tuple dropped, its siblings kept", func(t *testing.T, db *DB, conn *Conn, vr *authindex.VerifiedResult) {
			vr.Result.Positions, vr.Result.Tuples = vr.Result.Positions[:1], vr.Result.Tuples[:1]
		}, "need exactly"},
		{"one tuple dropped, its position kept", func(t *testing.T, db *DB, conn *Conn, vr *authindex.VerifiedResult) {
			vr.Result.Tuples = vr.Result.Tuples[:1]
		}, "1 tuples at %d positions"},
		{"cut from an older snapshot", func(t *testing.T, db *DB, conn *Conn, vr *authindex.VerifiedResult) {
			if err := db.Insert(relation.Tuple{relation.String("Edsger"), relation.String("HR"), relation.Int(9900)}); err != nil {
				t.Fatal(err)
			}
		}, "does not match the pinned root"},
		{"leaf count off the pin", func(t *testing.T, db *DB, conn *Conn, vr *authindex.VerifiedResult) {
			vr.Leaves++
		}, "does not match the pinned root"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := startPipe(t, storage.NewMemory())
			db := NewDB(conn, newScheme(t), "emp")
			if err := db.CreateTable(wideEmpTable()); err != nil {
				t.Fatal(err)
			}
			vr := verifiedAnswer(t, db, conn, "HR")
			tc.forge(t, db, conn, vr)
			err := checkVerifiedAgainst(newPin(db.pins[0].root, db.pins[0].tuples, db.pins[0].cap), vr)
			want := tc.want
			if strings.Contains(want, "%d") {
				// The forged answer's own position count: SWP false
				// positives make it vary from run to run.
				want = fmt.Sprintf(want, len(vr.Result.Positions))
			}
			if err == nil || !strings.Contains(err.Error(), "verification failed") || !strings.Contains(err.Error(), want) {
				t.Fatalf("forged answer: %v, want a verification failure naming %q", err, want)
			}
		})
	}
}

// refusingProxy forwards frames to a real server but answers the given
// commands with the server's unknown-command error. The returned
// counter tallies every frame the client sends.
func refusingProxy(t *testing.T, store *storage.Store, refuse ...byte) (*Conn, *frameCounter) {
	t.Helper()
	srv := server.New(store, log.New(testWriter{t}, "", 0))
	srvCli, srvSide := net.Pipe()
	go srv.ServeConn(srvSide)
	cliSide, proxySide := net.Pipe()
	go func() {
		defer srvCli.Close()
		pr := bufio.NewReader(proxySide)
		pw := bufio.NewWriter(proxySide)
		sr := bufio.NewReader(srvCli)
		sw := bufio.NewWriter(srvCli)
		for {
			f, err := wire.ReadFrame(pr)
			if err != nil {
				return
			}
			if bytes.IndexByte(refuse, f.Type) >= 0 {
				resp := wire.Frame{Type: wire.RespError,
					Payload: wire.AppendString(nil, fmt.Sprintf("server: unknown command %#x", f.Type))}
				if err := wire.WriteFrame(pw, resp); err != nil {
					return
				}
				continue
			}
			if err := wire.WriteFrame(sw, f); err != nil {
				return
			}
			resp, err := wire.ReadFrame(sr)
			if err != nil {
				return
			}
			if err := wire.WriteFrame(pw, resp); err != nil {
				return
			}
		}
	}()
	fc := &frameCounter{Conn: cliSide, counts: make(map[byte]int)}
	conn := NewConn(fc)
	t.Cleanup(func() { conn.Close() })
	return conn, fc
}

// TestReadErrorSurfaces: a server error is the caller's to see,
// whatever its text. A server answering "unknown command" to the read
// request — or any error that merely contains those words, like a
// missing table named "unknown command" — must surface after exactly one
// frame: no second request on some other path may follow it.
func TestReadErrorSurfaces(t *testing.T) {
	hr := relation.Eq{Column: "dept", Value: relation.String("HR")}
	it := relation.Eq{Column: "dept", Value: relation.String("IT")}
	for _, tc := range []struct {
		name  string
		table string // the table the reads address; "emp" exists
		pin   bool
		read  func(db *DB) error
		want  string
	}{
		{"conjunction", "emp", false, func(db *DB) error {
			_, err := db.Query("SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500")
			return err
		}, "unknown command 0x3"},
		{"pinned SelectMany", "emp", true, func(db *DB) error {
			_, err := db.SelectMany([]relation.Eq{hr, it})
			return err
		}, "unknown command 0x3"},
		{"pinned SelectMany, error text only", "unknown command", true, func(db *DB) error {
			_, err := db.SelectMany([]relation.Eq{hr, it})
			return err
		}, `unknown table "unknown command"`},
		{"conjunction, error text only", "unknown command", false, func(db *DB) error {
			_, err := db.SelectConj([]relation.Eq{hr, it})
			return err
		}, `unknown table "unknown command"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewMemory()
			var refuse []byte
			if tc.table == "emp" {
				refuse = []byte{wire.CmdQuery}
			}
			conn, fc := refusingProxy(t, store, refuse...)
			db := NewDB(conn, newScheme(t), "emp")
			if err := db.CreateTable(empTable()); err != nil {
				t.Fatal(err)
			}
			pins := db.pins // with their caps: an anchor alone would fetch first
			db = NewDB(conn, db.Scheme(), tc.table)
			if tc.pin {
				db.pins = pins
			}
			before := fc.total()
			err := tc.read(db)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want the server's %q surfaced", err, tc.want)
			}
			if sent := fc.total() - before; sent != 1 || fc.count(wire.CmdQuery) != 1 {
				t.Fatalf("client sent %d frames (%d read requests) for one refused read, want exactly 1: %v", sent, fc.count(wire.CmdQuery), fc.counts)
			}
		})
	}
}

// TestExplainRendersPlan: -explain surfaces the server's plan without
// executing the query.
func TestExplainRendersPlan(t *testing.T) {
	db, fc, _ := conjDB(t, false)
	out, err := db.Explain("SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan for emp", "σ_dept:HR", "σ_salary:7500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if n := fc.count(wire.CmdQuery); n != 1 {
		t.Fatalf("explain sent %d read requests, want 1", n)
	}
	// Single-equality and bare statements are described locally.
	out, err = db.Explain("SELECT * FROM emp WHERE dept = 'HR'")
	if err != nil || !strings.Contains(out, "single select") {
		t.Fatalf("single-equality explain: %q, %v", out, err)
	}
	out, err = db.Explain("SELECT * FROM emp")
	if err != nil || !strings.Contains(out, "full table download") {
		t.Fatalf("bare explain: %q, %v", out, err)
	}
}
