package client

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

// replicaDialer returns a dial function that serves each accepted pipe from
// srv, plus a kill switch that severs every connection it handed out and
// makes further dials fail.
func replicaDialer(t *testing.T, srv *server.Server) (dial func() (*Conn, error), kill func()) {
	t.Helper()
	var handed []net.Conn
	dead := false
	dial = func() (*Conn, error) {
		if dead {
			return nil, fmt.Errorf("replica is down")
		}
		cliSide, srvSide := net.Pipe()
		go srv.ServeConn(srvSide)
		handed = append(handed, cliSide, srvSide)
		return NewConn(cliSide), nil
	}
	kill = func() {
		dead = true
		for _, c := range handed {
			c.Close()
		}
	}
	t.Cleanup(kill)
	return dial, kill
}

func hrQuery() relation.Eq {
	return relation.Eq{Column: "dept", Value: relation.String("HR")}
}

// TestDialRetrySucceedsAfterFlakyDials: a transport that fails the first
// attempts is retried within the configured budget, and the connection
// that finally lands works.
func TestDialRetrySucceedsAfterFlakyDials(t *testing.T) {
	srv := server.New(storage.NewMemory(), nil)
	tries := 0
	conn, err := DialWithConfig("flaky", DialConfig{
		Attempts:   3,
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
		DialFunc: func(addr string) (net.Conn, error) {
			tries++
			if tries < 3 {
				return nil, fmt.Errorf("connection refused")
			}
			cliSide, srvSide := net.Pipe()
			go srv.ServeConn(srvSide)
			return cliSide, nil
		},
	})
	if err != nil {
		t.Fatalf("dial with 2 transient failures: %v", err)
	}
	defer conn.Close()
	if tries != 3 {
		t.Fatalf("dialed %d times, want 3", tries)
	}
	if _, err := conn.List(); err != nil {
		t.Fatalf("round trip on retried connection: %v", err)
	}
}

// TestDialRetryGivesUp: a permanently dead address exhausts the attempt
// budget and reports it.
func TestDialRetryGivesUp(t *testing.T) {
	tries := 0
	_, err := DialWithConfig("dead", DialConfig{
		Attempts:   4,
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
		DialFunc: func(addr string) (net.Conn, error) {
			tries++
			return nil, fmt.Errorf("connection refused")
		},
	})
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if tries != 4 {
		t.Fatalf("dialed %d times, want 4", tries)
	}
}

// TestIOTimeoutUnwedgesClient: a server that accepts the dial but never
// answers must not pin the client past the I/O deadline.
func TestIOTimeoutUnwedgesClient(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	defer srvSide.Close()
	conn := NewConn(cliSide)
	defer conn.Close()
	conn.SetIOTimeout(50 * time.Millisecond)
	// Drain the request so the write succeeds, then never answer.
	go func() {
		buf := make([]byte, 1024)
		for {
			if _, err := srvSide.Read(buf); err != nil {
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := conn.List()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged server answered?")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("I/O deadline never released the client")
	}
}

// TestReadsSpreadOverReplicas: with healthy replicas, verified reads are
// served by them — round-robin — and never touch the primary.
func TestReadsSpreadOverReplicas(t *testing.T) {
	store := storage.NewMemory()
	db := NewDB(startPipe(t, store), newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	// Replicas serve the same store through separate server instances —
	// the perfectly-synced case.
	for i := 0; i < 2; i++ {
		dial, _ := replicaDialer(t, server.NewWithOptions(store, nil, server.Options{ReadOnly: true}))
		db.AddReplica(dial)
	}
	want, _ := relation.Select(empTable(), hrQuery())
	for i := 0; i < 4; i++ {
		got, err := db.Select(hrQuery())
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("read %d wrong result:\n%v", i, got)
		}
	}
	stats := db.ReadStats()
	if stats.ReplicaReads != 4 || stats.PrimaryReads != 0 || stats.Failovers != 0 {
		t.Fatalf("stats %+v: want 4 replica reads, 0 primary", stats)
	}
}

// TestFailoverToPrimaryOnReplicaDeath: killing every replica mid-stream
// must not fail a single read — they fail over to the primary.
func TestFailoverToPrimaryOnReplicaDeath(t *testing.T) {
	store := storage.NewMemory()
	db := NewDB(startPipe(t, store), newScheme(t), "emp")
	if err := db.CreateTable(empTable()); err != nil {
		t.Fatal(err)
	}
	dial, kill := replicaDialer(t, server.NewWithOptions(store, nil, server.Options{ReadOnly: true}))
	db.AddReplica(dial)

	want, _ := relation.Select(empTable(), hrQuery())
	read := func(label string) {
		t.Helper()
		got, err := db.Select(hrQuery())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: wrong result:\n%v", label, got)
		}
	}
	read("before kill")
	if s := db.ReadStats(); s.ReplicaReads != 1 {
		t.Fatalf("warm-up read not served by the replica: %+v", s)
	}
	kill()
	read("after kill")
	stats := db.ReadStats()
	if stats.PrimaryReads != 1 || stats.Failovers != 1 || stats.ReplicaFailures == 0 {
		t.Fatalf("stats %+v: want the post-kill read failed over to the primary", stats)
	}
	// The dead replica is quarantined: the next read goes straight to the
	// primary without burning another attempt on it.
	failures := stats.ReplicaFailures
	read("while quarantined")
	if s := db.ReadStats(); s.ReplicaFailures != failures {
		t.Fatalf("quarantined replica was dialed again immediately: %+v", s)
	}
}
