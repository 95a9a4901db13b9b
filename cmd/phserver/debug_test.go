package main

import (
	"bufio"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/fault"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

// get serves one request to d's endpoints and returns the status and
// body.
func get(t *testing.T, d *debug, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	d.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// scrape reads /metrics into a map from "name" or "name{labels}" to
// value, checking every sample line follows its family's # TYPE line.
func scrape(t *testing.T, d *debug) map[string]uint64 {
	t.Helper()
	code, body := get(t, d, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics answered %d", code)
	}
	out := map[string]uint64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		name, _, _ := strings.Cut(key, "{")
		v, err := strconv.ParseUint(val, 10, 64)
		if !ok || err != nil || !typed[name] {
			t.Fatalf("malformed or untyped sample line %q", line)
		}
		out[key] = v
	}
	return out
}

// lookups is the result-cache lookups of a scrape, every outcome.
func lookups(m map[string]uint64) uint64 {
	return m[`phserver_cache_lookups_total{outcome="hit"}`] + m[`phserver_cache_lookups_total{outcome="delta"}`] + m[`phserver_cache_lookups_total{outcome="miss"}`]
}

// debugFixture encrypts an n-tuple table of one int column under a
// fixed key, and a select on value v.
func debugFixture(t *testing.T, n int, v int64) (*core.PH, *ph.EncryptedTable, *ph.EncryptedQuery) {
	t.Helper()
	schema := relation.MustSchema("t", relation.Column{Name: "v", Type: relation.TypeInt, Width: 8})
	p, err := core.New(crypto.KeyFromBytes([]byte("debug endpoint")), schema, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := relation.NewTable(schema)
	for i := range n {
		plain.MustInsert(relation.Int(int64(i % 4)))
	}
	et, err := p.EncryptTable(plain)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.EncryptQuery(relation.Eq{Column: "v", Value: relation.Int(v)})
	if err != nil {
		t.Fatal(err)
	}
	return p, et, q
}

// TestMetricsCountRequests: N reads and M inserts through a served
// connection move the lookup and log-record counters by exactly N and
// M, and the connection gauge counts the open connection.
func TestMetricsCountRequests(t *testing.T) {
	store, err := storage.Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	p, et, q := debugFixture(t, 64, 2)
	if err := store.Put("t", et); err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	conn, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d := &debug{srv: srv, store: store}

	before := scrape(t, d)
	const reads, inserts = 7, 3
	for range reads {
		if _, err := conn.Read("t", 0, [][]*ph.EncryptedQuery{{q}}); err != nil {
			t.Fatal(err)
		}
	}
	one := relation.NewTable(p.Schema())
	one.MustInsert(relation.Int(2))
	for range inserts {
		ct, err := p.EncryptTable(one)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Insert("t", ct.Tuples); err != nil {
			t.Fatal(err)
		}
	}
	after := scrape(t, d)
	if got := lookups(after) - lookups(before); got != reads {
		t.Errorf("%d reads moved the lookup counters by %d", reads, got)
	}
	if got := after["phserver_log_records_total"] - before["phserver_log_records_total"]; got != inserts {
		t.Errorf("%d inserts moved the log-record counter by %d", inserts, got)
	}
	if after["phserver_connections"] != 1 || after["phserver_tables"] != 1 || after["phserver_tuples"] != 64+inserts || after["phserver_ready"] != 1 {
		t.Errorf("gauges: %d connections, %d tables, %d tuples, ready %d; want 1, 1, %d, 1",
			after["phserver_connections"], after["phserver_tables"], after["phserver_tuples"], after["phserver_ready"], 64+inserts)
	}
	if code, _ := get(t, d, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz answered %d", code)
	}
	if code, body := get(t, d, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ answered %d", code)
	}
}

// TestReadyzFollowsTheLog: /readyz answers 200 on a healthy store, 503
// once a full disk has left the store refusing mutations, 200 again on
// the store reopened over the same log, and 503 on a follower that has
// not caught up.
func TestReadyzFollowsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	store, err := storage.OpenOptions(path, storage.Options{WrapLog: func(f storage.LogFile) storage.LogFile {
		return fault.NewFile(f, fault.FilePlan{FailWriteAfterBytes: 4096})
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, small, _ := debugFixture(t, 4, 0)
	if err := store.Put("t", small); err != nil {
		t.Fatal(err)
	}
	d := &debug{srv: server.New(store, nil), store: store}
	ready := func(want int, when string) {
		t.Helper()
		if code, body := get(t, d, "/readyz"); code != want {
			t.Fatalf("%s: /readyz answered %d (%s), want %d", when, code, strings.TrimSpace(body), want)
		}
		if up := scrape(t, d)["phserver_ready"]; up != map[int]uint64{http.StatusOK: 1}[want] {
			t.Fatalf("%s: phserver_ready is %d", when, up)
		}
	}
	ready(http.StatusOK, "a healthy store")
	_, big, _ := debugFixture(t, 400, 0)
	if err := store.Append("t", big.Tuples); err == nil {
		t.Fatal("an append past the full disk was accepted")
	}
	ready(http.StatusServiceUnavailable, "a full disk")
	if _, err := store.Query("t", mustQuery(t)); err != nil {
		t.Fatalf("a read on the read-only store: %v", err)
	}
	store.Close()

	reopened, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	d = &debug{srv: server.New(reopened, nil), store: reopened}
	ready(http.StatusOK, "the reopened store")

	caughtUp := false
	d.ready = func() bool { return caughtUp }
	ready(http.StatusServiceUnavailable, "a follower catching up")
	caughtUp = true
	ready(http.StatusOK, "a follower caught up")
}

func mustQuery(t *testing.T) *ph.EncryptedQuery {
	t.Helper()
	_, _, q := debugFixture(t, 0, 0)
	return q
}
