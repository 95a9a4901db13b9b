package client

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestCatalogRoutesByTableName(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	cat := NewCatalog(conn)

	empDB, err := cat.Attach("emp", newScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	patScheme, err := core.New(key, workload.HospitalSchema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	patDB, err := cat.Attach("pat", patScheme)
	if err != nil {
		t.Fatal(err)
	}

	if err := empDB.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	patients, err := workload.Hospital(workload.HospitalConfig{Patients: 30}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := patDB.CreateTable(patients); err != nil {
		t.Fatal(err)
	}

	// Route by remote name.
	res, err := cat.Query("SELECT * FROM emp WHERE dept = 'HR'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("emp query returned %d tuples", res.Len())
	}
	// Route by schema name ("patients" is the schema of remote "pat").
	res, err = cat.Query("SELECT * FROM patients WHERE hospital = 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Tuples() {
		if tp[2].Integer() != 2 {
			t.Fatalf("wrong tuple from patients: %v", tp)
		}
	}
	// Unknown table.
	if _, err := cat.Query("SELECT * FROM nope WHERE x = 1"); err == nil {
		t.Fatal("query on unattached table accepted")
	}
	if len(cat.Names()) != 2 {
		t.Fatalf("names: %v", cat.Names())
	}
}

func TestCatalogAmbiguousSchemaName(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	cat := NewCatalog(conn)
	if _, err := cat.Attach("a", newScheme(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Attach("b", newScheme(t)); err != nil {
		t.Fatal(err)
	}
	// Both remotes serve schema "emp": routing by schema name must
	// refuse rather than pick silently.
	if _, err := cat.Query("SELECT * FROM emp WHERE dept = 'HR'"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("expected ambiguity error, got %v", err)
	}
}

func TestConfigRoundTripAndAttach(t *testing.T) {
	cfg := &Config{Tables: []TableConfig{
		{
			Remote: "emp",
			Scheme: core.SchemeID,
			Schema: SchemaConfigOf(empSchema()),
		},
		{
			Remote:         "pat",
			Scheme:         core.SchemeID,
			Schema:         SchemaConfigOf(workload.HospitalSchema()),
			ChecksumLen:    4,
			PerColumnWidth: true,
		},
	}}
	path := filepath.Join(t.TempDir(), "client.json")
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Tables) != 2 || loaded.Tables[1].ChecksumLen != 4 || !loaded.Tables[1].PerColumnWidth {
		t.Fatalf("loaded config: %+v", loaded)
	}

	master := crypto.KeyFromBytes([]byte("catalog-passphrase"))
	conn := startPipe(t, storage.NewMemory())
	cat, err := loaded.AttachAll(conn, master)
	if err != nil {
		t.Fatal(err)
	}
	empDB, err := cat.DB("emp")
	if err != nil {
		t.Fatal(err)
	}
	if err := empDB.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	res, err := cat.Query("SELECT name FROM emp WHERE salary = 9100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuple(0)[0].Str() != "Ada" {
		t.Fatalf("config-built catalog query: %v", res)
	}
}

// TestConfigReplicasServeReads: the config's net.replicas attach to every
// DB AttachAll builds, so a verified read is served by the read-only
// replica, not the primary.
func TestConfigReplicasServeReads(t *testing.T) {
	store := storage.NewMemory()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replica := server.NewWithOptions(store, nil, server.Options{ReadOnly: true})
	go replica.Serve(l)
	t.Cleanup(func() { replica.Close() })

	cfg := &Config{
		Tables: []TableConfig{{Remote: "emp", Scheme: core.SchemeID, Schema: SchemaConfigOf(empSchema())}},
		Net:    NetConfig{DialAttempts: 1, Replicas: []string{l.Addr().String()}},
	}
	cat, err := cfg.AttachAll(startPipe(t, store), crypto.KeyFromBytes([]byte("replica-passphrase")))
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.DB("emp")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	got, err := db.Select(hrQuery())
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := relation.Select(empTable(), hrQuery()); !got.Equal(want) {
		t.Fatalf("replica-served select:\n%v", got)
	}
	if st := db.ReadStats(); st.ReplicaReads != 1 || st.PrimaryReads != 0 {
		t.Fatalf("stats %+v: want the one read served by the config's replica", st)
	}
}

// TestShardedDBRefusesReplicas: a sharded DB has no single primary pool
// to put replicas beside, so AddReplica/AddReplicas return an error
// naming the per-shard path instead of panicking, and a config setting
// both shards and net.replicas fails to attach.
func TestShardedDBRefusesReplicas(t *testing.T) {
	var cl struct{ Cluster } // no method is called: attaching touches no shard
	db := NewShardedDB(cl, newScheme(t), "emp")
	refused := func(label string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "ShardConfig.Replicas") {
			t.Fatalf("%s on a sharded DB: %v, want an error naming ShardConfig.Replicas", label, err)
		}
	}
	refused("AddReplica", db.AddReplica(func() (*Conn, error) { return nil, fmt.Errorf("never dialed") }))
	refused("AddReplicas", db.AddReplicas(DialConfig{}, "127.0.0.1:1"))

	cfg := &Config{
		Tables: []TableConfig{{Remote: "emp", Scheme: core.SchemeID, Schema: SchemaConfigOf(empSchema())}},
		Net:    NetConfig{Replicas: []string{"127.0.0.1:1"}},
	}
	_, err := cfg.AttachAllSharded(cl, crypto.KeyFromBytes([]byte("sharded-passphrase")))
	refused("AttachAllSharded with net.replicas", err)
}

func TestConfigKeysAreDeterministicAndSeparated(t *testing.T) {
	// The same passphrase must rebuild a scheme that can decrypt what a
	// previous instance encrypted; a different table name must not.
	master := crypto.KeyFromBytes([]byte("stable-pass"))
	tc := TableConfig{Remote: "emp", Scheme: core.SchemeID, Schema: SchemaConfigOf(empSchema())}
	s1, err := tc.BuildScheme(master)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tc.BuildScheme(master)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s1.EncryptTable(empTable())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s2.DecryptTable(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Equal(empTable()) {
		t.Fatal("rebuilt scheme could not decrypt")
	}
	other := tc
	other.Remote = "different"
	s3, err := other.BuildScheme(master)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.DecryptTable(ct); err == nil {
		// decryptTuple may error or produce garbage; garbage that
		// happens to parse must at least differ from the plaintext.
		got, err := s3.DecryptTable(ct)
		if err == nil && got.Equal(empTable()) {
			t.Fatal("different table name derived the same key")
		}
	}
}

func TestLoadConfigValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		json string
	}{
		{"syntax", `{`},
		{"empty remote", `{"tables":[{"remote":"","scheme":"swp-ph","schema":{"name":"t","columns":[{"name":"a","type":"string","width":3}]}}]}`},
		{"duplicate", `{"tables":[
			{"remote":"x","scheme":"swp-ph","schema":{"name":"t","columns":[{"name":"a","type":"string","width":3}]}},
			{"remote":"x","scheme":"swp-ph","schema":{"name":"t","columns":[{"name":"a","type":"string","width":3}]}}]}`},
		{"bad type", `{"tables":[{"remote":"x","scheme":"swp-ph","schema":{"name":"t","columns":[{"name":"a","type":"float","width":3}]}}]}`},
		{"bad width", `{"tables":[{"remote":"x","scheme":"swp-ph","schema":{"name":"t","columns":[{"name":"a","type":"int","width":0}]}}]}`},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".json")
		if err := writeFile(path, c.json); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil {
			t.Errorf("%s: invalid config loaded", c.name)
		}
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing config loaded")
	}
}

// TestBuildSchemeUnknown: every scheme but the paper's construction is
// refused, the comparators by name.
func TestBuildSchemeUnknown(t *testing.T) {
	for _, id := range []string{"nope", "", "bucket", "damiani", "detph", "goh-ph"} {
		tc := TableConfig{Remote: "x", Scheme: id, Schema: SchemaConfigOf(empSchema())}
		if _, err := tc.BuildScheme(crypto.Key{}); err == nil || !strings.Contains(err.Error(), "Definition 2.1") {
			t.Fatalf("scheme %q: BuildScheme error %v, want a refusal naming Definition 2.1", id, err)
		}
	}
}

func TestCatalogAttachValidation(t *testing.T) {
	conn := startPipe(t, storage.NewMemory())
	cat := NewCatalog(conn)
	if _, err := cat.Attach("", newScheme(t)); err == nil {
		t.Fatal("empty table name attached")
	}
	if _, err := cat.DB("nope"); err == nil {
		t.Fatal("unknown table returned")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o600)
}
