package client_test

import (
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
)

var (
	hr, it = oracle.Eq("dept", "HR"), oracle.Eq("dept", "IT")
	hrs    = oracle.Eq("salary", 7500)
)

// TestQueryConjPushdownMatchesPlaintext: the pushdown path must answer
// exactly what relation.Select with relation.And answers on the
// plaintext (Definition 1.1), for overlapping, disjoint and triple
// conjunctions, in one read request each.
func TestQueryConjPushdownMatchesPlaintext(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	row := func(name, dept string, salary int64) relation.Tuple {
		return relation.Tuple{relation.String(name), relation.String(dept), relation.Int(salary)}
	}
	r.Do(oracle.Put([]relation.Tuple{row("Montgomery", "HR", 7500), row("Ada", "IT", 9100), row("Grace", "HR", 8800),
		row("Barbara", "HR", 7500), row("Alan", "IT", 7500), row("Edsger", "OPS", 7500)}))
	reads := 0
	r.Tap(0, 0).Rewrite(func([]query.Response) { reads++ })
	r.Do(oracle.Conj(false, hr, hrs), oracle.Conj(false, it, oracle.Eq("salary", 8800)),
		oracle.Conj(false, hr, hrs, oracle.Eq("name", "Barbara")))
	if reads != 3 {
		t.Fatalf("3 conjunctive queries sent %d read requests, want one each", reads)
	}
}

// TestOverTCP runs verified and plain reads of every shape over a real
// TCP listener, the second client on a connection of its own.
func TestOverTCP(t *testing.T) {
	tcp := oracle.Single("tcp", func(tb testing.TB, srv *server.Server) func() (net.Conn, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Serve(l)
		return func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	})
	r := oracle.New(t, nil, tcp)
	r.Do(oracle.Put(client.EmpTable().Tuples()))
	for _, verified := range []bool{false, true} {
		r.Do(oracle.Select(verified, oracle.Eq("salary", 9100)), oracle.Conj(verified, hr, oracle.Eq("salary", 8800)),
			oracle.Many(verified, hr, it))
	}
	r.Do(oracle.All(false))
}

// TestSelectManyBatch: a batch answers each of its selects — two rows,
// one row, none — plain and verified, and an empty batch is a no-op.
func TestSelectManyBatch(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()))
	for _, verified := range []bool{false, true} {
		r.Do(oracle.Many(verified, hr, oracle.Eq("salary", 9100), oracle.Eq("name", "Nobody")))
	}
	if none, err := r.DB(0).SelectMany(nil); err != nil || none != nil {
		t.Fatalf("empty batch: %v %v", none, err)
	}
}

// TestBatchVerifiesEachResult: every answer of a verified batch is held
// to the pinned root, so a batch with a tampered answer is refused.
func TestBatchVerifiesEachResult(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Many(true, hr, it).Tampered())
}

// TestTamperedServerDetected: whatever a verified select touches — rows
// or an empty answer — an answer Eve rewrites behind Alex's back fails
// verification.
func TestTamperedServerDetected(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()))
	for _, q := range []relation.Eq{hr, it, hrs, oracle.Eq("salary", 9100), oracle.Eq("name", "Montgomery"), oracle.Eq("name", "Nobody")} {
		r.Do(oracle.Select(true, q).Tampered())
	}
}

func TestEndToEndSelect(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Select(false, hr), oracle.Select(true, hr))
}

func TestEndToEndInsert(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()),
		oracle.Append(relation.Tuple{relation.String("Alan"), relation.String("R&D"), relation.Int(7500)}),
		oracle.Select(true, oracle.Eq("name", "Alan")), oracle.Select(false, hrs), oracle.All(false))
}

// TestVerifiedQueryDetectsTampering: a verified select whose answer was
// tampered with is refused.
func TestVerifiedQueryDetectsTampering(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Select(true, hr).Tampered())
}

// TestDurableRestartEndToEnd exercises the whole stack across a crash: a
// durable server stores encrypted data; the server process and client
// are torn down; a fresh server replays the log; a fresh client under
// the scheme a passphrase-derived config builds, and holding only the
// persisted root, queries and verifies as if nothing happened — and
// refuses a tampered answer.
func TestDurableRestartEndToEnd(t *testing.T) {
	tc := client.TableConfig{Remote: "emp", Scheme: "swp-ph", Schema: client.SchemaConfigOf(client.EmpTable().Schema())}
	scheme, err := tc.BuildScheme(crypto.KeyFromBytes([]byte("restart-pass")))
	if err != nil {
		t.Fatal(err)
	}
	r := oracle.New(t, scheme, oracle.Durable())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Reopen(fault.FilePlan{}), oracle.Select(true, hr).Tampered(), oracle.All(false))
}

// TestInsertBatchDurable drives the client batch-insert path against a
// durable group-commit store: parallel chunked inserts over several
// connections, then a crash (no Close) and replay, asserting every
// acknowledged chunk survived and the data is queryable.
func TestInsertBatchDurable(t *testing.T) {
	r := oracle.New(t, nil, oracle.Durable())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Append(client.BigEmpTuples(120)...).Batched(4, 10), oracle.All(false))
	if r.Stores(0)[0].LogStats().Syncs == 0 {
		t.Fatal("batch insert under SyncAlways recorded no fsyncs")
	}
	r.Do(oracle.Reopen(fault.FilePlan{}), oracle.All(false), oracle.Select(true, hr))
}

// TestInsertBatchVerifiedRoot: with a pinned root, InsertBatch refreshes
// it so verified selects keep working afterwards.
func TestInsertBatchVerifiedRoot(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Append(client.BigEmpTuples(40)...).Batched(3, 7),
		oracle.Select(true, hr).Tampered())
}

// TestInsertBatchNilDialFallsBack: the serial path over the DB's own
// connection still works.
func TestInsertBatchNilDialFallsBack(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Append(client.BigEmpTuples(5)...), oracle.All(false))
}

// TestVerifiedFullDownloadRefusesTampering: a pinned SelectAll holds
// every node's table to its pin before decrypting it. A withheld row, a
// substituted tuple (another row's genuine ciphertext) and a replayed
// older table, each served by one node alone, are refused as a failed
// verification on one server and on two shards; an anchor-only pin
// adopts the cap the download rebuilt.
func TestVerifiedFullDownloadRefusesTampering(t *testing.T) {
	for _, topo := range []oracle.Topology{oracle.Memory(), oracle.Sharded(2)} {
		r := oracle.New(t, nil, topo)
		r.Do(oracle.Put(client.BigEmpTuples(40)), oracle.Reopen(fault.FilePlan{}), oracle.All(true))
		if slices.ContainsFunc(client.CapRows(r.DB(0)), func(row []byte) bool { return row == nil }) {
			t.Fatalf("%s: a verified download left an anchor-only pin without its cap", topo.Name)
		}
		var older []*ph.EncryptedTable
		for _, st := range r.Stores(0) {
			et, _ := st.Get("emp")
			older = append(older, et)
		}
		r.Do(oracle.Append(client.BigEmpTuples(40)...))
		sub, err := r.DB(0).Scheme().EncryptTable(client.EmpTable())
		if err != nil {
			t.Fatal(err)
		}
		for what, lie := range map[string]func(n int, t *ph.EncryptedTable){
			"withheld row":         func(_ int, t *ph.EncryptedTable) { oracle.TamperTable(t) },
			"substituted tuple":    func(_ int, t *ph.EncryptedTable) { t.Tuples[0] = sub.Tuples[0] },
			"replayed older table": func(n int, t *ph.EncryptedTable) { *t = *older[n] },
		} {
			for n := range older {
				r.Tap(0, n).RewriteTable(func(t *ph.EncryptedTable) { lie(n, t) })
				if _, err := r.DB(0).SelectAll(); err == nil || !strings.Contains(err.Error(), "verification failed") {
					t.Fatalf("%s: a %s from node %d was not refused by verification: %v", topo.Name, what, n, err)
				}
				r.Tap(0, n).RewriteTable(nil)
			}
		}
		r.Do(oracle.All(true))
	}
}

// TestByzantineReplicaQuarantined is the trust drill, on the oracle's
// Replicated topology: a follower whose answers are tampered passes the
// transport but fails the pinned-root check, so the client quarantines
// it and gets the true answer from the primary — the read succeeds and
// stays verified.
func TestByzantineReplicaQuarantined(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Heal())
	r.Tap(0, 1).Rewrite(oracle.Tamper)
	r.Do(oracle.Select(true, hr))
	if st := r.DB(0).ReadStats(); st.ReplicaFailures != 1 || st.PrimaryReads != 1 || st.ReplicaReads != 0 {
		t.Fatalf("stats %+v: want the lying follower refused and the primary serving", st)
	}
}

// TestReplicaServesConjunctiveReads: the pushed-down conjunction is
// routed through the follower, verified like any read.
func TestReplicaServesConjunctiveReads(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Heal())
	got, err := r.DB(0).Query("SELECT name FROM emp WHERE dept = 'HR' AND salary = 8800")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuple(0)[0].Str() != "Grace" {
		t.Fatalf("conjunctive result: %v", got)
	}
	if st := r.DB(0).ReadStats(); st.ReplicaReads != 1 || st.PrimaryReads != 0 {
		t.Fatalf("the conjunction was not served by the follower: %+v", st)
	}
}

// TestSelectManyRoutedThroughReplicas: SelectMany once bypassed the
// replica-aware routing and went straight to the primary; a batch is
// served by a caught-up follower, plain or verified. (That a pinned
// client's batch is verified is TestPinnedReadsAreOneVerifiedRoundTrip's.)
func TestSelectManyRoutedThroughReplicas(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Heal(), oracle.Many(false, hr, it), oracle.Many(true, hr, it))
	for _, db := range []*client.DB{r.Plain(0), r.DB(0)} {
		if st := db.ReadStats(); st.ReplicaReads != 1 || st.PrimaryReads != 0 {
			t.Fatalf("the batch was not served by the follower: %+v", st)
		}
	}
}

// TestSelectManyFailsOverToPrimary: a follower that cannot serve — new,
// and cut off from its primary — is quarantined, and the batch falls
// back to the primary instead of failing.
func TestSelectManyFailsOverToPrimary(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(client.EmpTable().Tuples()), oracle.Cut(), oracle.Replace(), oracle.Many(false, hr))
	if st := r.Plain(0).ReadStats(); st.Failovers != 1 || st.PrimaryReads != 1 {
		t.Fatalf("the follower that cannot serve did not fail over: %+v", st)
	}
}
