package client

import (
	"log"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

// startPipe wires a client Conn to a server over an in-memory pipe.
func startPipe(t *testing.T, store *storage.Store) *Conn {
	t.Helper()
	srv := server.New(store, log.New(testWriter{t}, "", 0))
	cliSide, srvSide := net.Pipe()
	go srv.ServeConn(srvSide)
	conn := NewConn(cliSide)
	t.Cleanup(func() { conn.Close() })
	return conn
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("server: %s", strings.TrimSpace(string(p)))
	return len(p), nil
}

func empSchema() *relation.Schema {
	return relation.MustSchema("emp",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 10},
		relation.Column{Name: "dept", Type: relation.TypeString, Width: 5},
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 5},
	)
}

func empTable() *relation.Table {
	t := relation.NewTable(empSchema())
	t.MustInsert(relation.String("Montgomery"), relation.String("HR"), relation.Int(7500))
	t.MustInsert(relation.String("Ada"), relation.String("IT"), relation.Int(9100))
	t.MustInsert(relation.String("Grace"), relation.String("HR"), relation.Int(8800))
	return t
}

func newScheme(t *testing.T) ph.Scheme {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(key, empSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndSQL(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query("SELECT name FROM emp WHERE dept = 'HR' AND salary = 8800")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuple(0)[0].Str() != "Grace" {
		t.Fatalf("SQL result: %v", got)
	}
	// Full-table query.
	all, err := db.Query("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if !all.Equal(empTable()) {
		t.Fatal("SELECT * did not return the full table")
	}
	// Wrong table name is rejected client-side.
	if _, err := db.Query("SELECT * FROM other WHERE x = 1"); err == nil {
		t.Fatal("query against wrong table accepted")
	}
}

func TestServerSeesOnlyCiphertext(t *testing.T) {
	store := storage.NewMemory()
	conn := startPipe(t, store)
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	ct, err := store.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range ct.Tuples {
		for _, w := range tp.Words {
			for _, plain := range []string{"Montgomery", "HR", "7500", "Ada", "Grace"} {
				if strings.Contains(string(w), plain) {
					t.Fatalf("server-side word contains plaintext %q", plain)
				}
			}
		}
	}
}

func TestListAndDrop(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	infos, err := conn.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "emp" || infos[0].SchemeID != core.SchemeID || infos[0].Tuples != 3 {
		t.Fatalf("list: %+v", infos)
	}
	if err := conn.Drop("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectAll(); err == nil {
		t.Fatal("select on dropped table succeeded")
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	if _, err := conn.FetchAll("nope"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("expected unknown-table error, got %v", err)
	}
	// The connection must survive an error response.
	if _, err := conn.List(); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

// TestPinRootDisable checks that un-pinning returns the client to
// unverified mode.
func TestPinRootDisable(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	db := NewDB(conn, newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	db.PinRoot(nil, 0)
	if root, _ := db.Root(); len(root) != 0 {
		t.Fatal("root still pinned after disable")
	}
	if _, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")}); err != nil {
		t.Fatalf("unverified select failed: %v", err)
	}
}
