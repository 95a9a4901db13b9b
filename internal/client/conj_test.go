package client

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net"
	"strings"
	"testing"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/storage"
	"repro/internal/wire"
)

// conjDB uploads a slightly larger employee table and returns a DB over
// a frame-counting pipe.
func conjDB(t *testing.T, pin bool) (*DB, *frameCounter) {
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
	return db, fc
}

// sortedRows renders a table in a deterministic order for comparison.
func sortedRows(t *testing.T, tbl *relation.Table) string {
	t.Helper()
	return tbl.Sorted().String()
}

// TestQueryConjPushdownMatchesPlaintext: the pushdown path must answer
// exactly what relation.Select with relation.And answers on the
// plaintext (Definition 1.1), for overlapping, disjoint and triple
// conjunctions.
func TestQueryConjPushdownMatchesPlaintext(t *testing.T) {
	db, fc := conjDB(t, false)
	plain, err := db.SelectAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500",
		"SELECT * FROM emp WHERE dept = 'IT' AND salary = 8800",
		"SELECT name FROM emp WHERE dept = 'HR' AND salary = 7500 AND name = 'Barbara'",
	} {
		q, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		parsed, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		eqs, err := db.bindWhere(parsed)
		if err != nil {
			t.Fatal(err)
		}
		preds := make([]relation.Pred, len(eqs))
		for i, eq := range eqs {
			preds[i] = eq
		}
		want, err := relation.Select(plain, relation.And{Preds: preds})
		if err != nil {
			t.Fatal(err)
		}
		if parsed.Projection != nil {
			if want, err = relation.Project(want, parsed.Projection...); err != nil {
				t.Fatal(err)
			}
		}
		if sortedRows(t, q) != sortedRows(t, want) {
			t.Fatalf("%s:\npushdown:\n%splaintext:\n%s", sql, sortedRows(t, q), sortedRows(t, want))
		}
	}
	if n := fc.count(wire.CmdQueryConj); n == 0 {
		t.Fatal("conjunctive queries did not use CmdQueryConj")
	}
}

// TestQuerySingleEqualityUsesVerifiedPath: with a pinned root, a
// one-conjunct db.Query must go through CmdQueryVerified — the silent
// downgrade to the unverified CmdQueryBatch path is the regression this
// test pins down.
func TestQuerySingleEqualityUsesVerifiedPath(t *testing.T) {
	db, fc := conjDB(t, true)
	out, err := db.Query("SELECT * FROM emp WHERE dept = 'IT'")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("got %d tuples, want 2", out.Len())
	}
	if n := fc.count(wire.CmdQueryVerified); n != 1 {
		t.Fatalf("pinned single-equality Query sent %d CmdQueryVerified frames, want 1", n)
	}
	if n := fc.count(wire.CmdQueryBatch); n != 0 {
		t.Fatalf("pinned single-equality Query leaked %d CmdQueryBatch frames", n)
	}
}

// TestQueryConjVerifiedWhenPinned: a pinned conjunctive query runs the
// verified conjunctive protocol and still answers the plaintext
// selection.
func TestQueryConjVerifiedWhenPinned(t *testing.T) {
	db, fc := conjDB(t, true)
	out, err := db.Query("SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 { // Montgomery, Barbara
		t.Fatalf("got %d tuples, want 2:\n%s", out.Len(), sortedRows(t, out))
	}
	if n := fc.count(wire.CmdQueryConj); n != 1 {
		t.Fatalf("sent %d CmdQueryConj frames, want 1", n)
	}
}

// TestQueryConjVerifiedDetectsTampering: replacing the table behind the
// pin must make a verified conjunctive query fail before decryption.
func TestQueryConjVerifiedDetectsTampering(t *testing.T) {
	store := storage.NewMemory()
	conn := startPipe(t, store)
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	// Eve swaps the table for a different ciphertext (re-encryption of
	// the same rows under the same scheme, different randomness).
	evil, err := db.scheme.EncryptTable(empTable())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("emp", evil); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query("SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500")
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("tampered conjunctive answer accepted: %v", err)
	}
}

// TestCheckVerifiedRejectsDuplicatedPositions: inclusion proofs say a
// tuple IS at a position, not how often it may be listed — a malicious
// server repeating one tuple with its valid proof must not inflate a
// verified result's multiset.
func TestCheckVerifiedRejectsDuplicatedPositions(t *testing.T) {
	store := storage.NewMemory()
	conn := startPipe(t, store)
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	eq, err := db.scheme.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := conn.QueryVerified("emp", eq)
	if err != nil {
		t.Fatal(err)
	}
	if len(vr.Result.Positions) < 1 {
		t.Fatal("fixture query matched nothing")
	}
	// Sanity: the honest answer verifies.
	if err := db.checkVerified(vr); err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}
	// Malicious inflation: repeat the first tuple, position and proof.
	vr.Result.Positions = append([]int{vr.Result.Positions[0]}, vr.Result.Positions...)
	vr.Result.Tuples = append([]ph.EncryptedTuple{vr.Result.Tuples[0]}, vr.Result.Tuples...)
	vr.Proofs = append([]authindex.Proof{vr.Proofs[0]}, vr.Proofs...)
	err = db.checkVerified(vr)
	if err == nil || !strings.Contains(err.Error(), "strictly ascending") {
		t.Fatalf("duplicated position accepted: %v", err)
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

// TestQueryConjUnknownCommandSurfaces: a server error is the caller's to
// see, whatever its text. A server answering "unknown command" to
// CmdQueryConj or CmdQueryVerified — or any error that merely contains
// those words, like a missing table named "unknown command" — must
// surface after exactly one frame: no second request on another path
// (ship-everything conjunctions, unverified batches) may follow it.
func TestQueryConjUnknownCommandSurfaces(t *testing.T) {
	hr := relation.Eq{Column: "dept", Value: relation.String("HR")}
	it := relation.Eq{Column: "dept", Value: relation.String("IT")}
	for _, tc := range []struct {
		name  string
		table string // the table the reads address; "emp" exists
		pin   bool
		read  func(db *DB) error
		cmd   byte
		want  string
	}{
		{"conjunction", "emp", false, func(db *DB) error {
			_, err := db.Query("SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500")
			return err
		}, wire.CmdQueryConj, "unknown command 0xc"},
		{"pinned SelectMany", "emp", true, func(db *DB) error {
			_, err := db.SelectMany([]relation.Eq{hr, it})
			return err
		}, wire.CmdQueryVerified, "unknown command 0xa"},
		{"pinned SelectMany, error text only", "unknown command", true, func(db *DB) error {
			_, err := db.SelectMany([]relation.Eq{hr, it})
			return err
		}, wire.CmdQueryVerified, `unknown table "unknown command"`},
		{"conjunction, error text only", "unknown command", false, func(db *DB) error {
			_, err := db.SelectConj([]relation.Eq{hr, it})
			return err
		}, wire.CmdQueryConj, `unknown table "unknown command"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewMemory()
			var refuse []byte
			if tc.table == "emp" {
				refuse = []byte{tc.cmd}
			}
			conn, fc := refusingProxy(t, store, refuse...)
			db := NewDB(conn, newScheme(t), "emp")
			if err := db.CreateTable(empTable()); err != nil {
				t.Fatal(err)
			}
			root, tuples := db.Root()
			db = NewDB(conn, db.Scheme(), tc.table)
			if tc.pin {
				db.PinRoot(root, tuples)
			}
			before := fc.total()
			err := tc.read(db)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want the server's %q surfaced", err, tc.want)
			}
			if sent := fc.total() - before; sent != 1 || fc.count(tc.cmd) != 1 {
				t.Fatalf("client sent %d frames (%d of command %#x) for one refused read, want exactly 1: %v", sent, fc.count(tc.cmd), tc.cmd, fc.counts)
			}
		})
	}
}

// TestExplainRendersPlan: -explain surfaces the server's plan without
// executing the query.
func TestExplainRendersPlan(t *testing.T) {
	db, fc := conjDB(t, false)
	out, err := db.Explain("SELECT * FROM emp WHERE dept = 'HR' AND salary = 7500")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan for emp", "σ_dept:HR", "σ_salary:7500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if n := fc.count(wire.CmdQueryConj); n != 1 {
		t.Fatalf("explain sent %d CmdQueryConj frames, want 1", n)
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
