package shard

import (
	"fmt"
	"log"
	"net"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wire"
)

// startProxy serves a coordinator behind server.NewProxy over a pipe —
// an in-memory `phserver -coordinator` — and returns a connection to it.
func startProxy(t *testing.T, co *Coordinator) *client.Conn {
	t.Helper()
	srv := server.NewProxy(co, log.New(shardTestWriter{t}, "", 0), server.Options{})
	cliSide, srvSide := net.Pipe()
	go srv.ServeConn(srvSide)
	conn := client.NewConn(cliSide)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestRemoteMapVersionMismatch: a client on a stale partition map fails
// loudly instead of merging mis-routed answers.
func TestRemoteMapVersionMismatch(t *testing.T) {
	co, _ := newCluster(t, 2)
	conn := startProxy(t, co)
	remote, err := NewRemote(conn, Map{Version: 99, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	scheme := shardScheme(t)
	db := client.NewShardedDB(remote, scheme, "emp")
	// The upload itself travels the single-server store path (no version echo);
	// the first read, answered framed per shard, detects the stale map.
	if err := db.CreateTable(shardTable()); err != nil {
		t.Fatal(err)
	}
	_, err = db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err == nil {
		t.Fatal("stale partition map accepted")
	}
	if !strings.Contains(err.Error(), "partition map") {
		t.Fatalf("mismatch error does not mention the map: %v", err)
	}
}

// TestProxyLegacyClient: a single-server client pointed at a
// coordinator fails loudly on every read and write — a coordinator
// answers the ordinary commands framed per shard, and a single-server
// client refuses that envelope rather than receiving a merged answer.
func TestProxyLegacyClient(t *testing.T) {
	co, _ := newCluster(t, 3)
	conn := startProxy(t, co)
	scheme := shardScheme(t)
	db := client.NewDB(conn, scheme, "emp")
	if err := db.CreateTable(shardTable()); err != nil {
		t.Fatal(err)
	}
	db.PinRoot(nil, 0) // unpinned: the plain, unverified requests

	loud := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unexpected response") {
			t.Fatalf("single-server %s through a coordinator: %v, want an unexpected-response error", what, err)
		}
	}
	_, err := db.Select(relation.Eq{Column: "dept", Value: relation.String("HR")})
	loud("select", err)
	_, err = db.SelectAll()
	loud("select-all", err)
	loud("insert", db.Insert(relation.Tuple{relation.String("legacy"), relation.String("HR"), relation.Int(1)}))
	for _, flags := range []byte{wire.ReadFlagVerified, wire.ReadFlagExplain} {
		_, err = conn.Read("emp", flags, [][]*ph.EncryptedQuery{{mustEncrypt(t, scheme, "dept", "HR")}})
		loud(fmt.Sprintf("read with flags %#x", flags), err)
	}
	// Commands a store answers with RespOK or RespList keep that shape.
	// The insert above did land (24 + 1): only its ack was refused.
	infos, err := conn.List()
	if err != nil || len(infos) != 1 || infos[0].Name != "emp" || infos[0].Tuples != 25 {
		t.Fatalf("directory through a coordinator: %+v, %v", infos, err)
	}
}

func mustEncrypt(t *testing.T, s ph.Scheme, col, val string) *ph.EncryptedQuery {
	t.Helper()
	q, err := s.EncryptQuery(relation.Eq{Column: col, Value: relation.String(val)})
	if err != nil {
		t.Fatal(err)
	}
	return q
}
