package storage_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/relation"
	"repro/internal/workload"
)

func employees(t *testing.T, n int, seed int64) []relation.Tuple {
	t.Helper()
	tbl, err := workload.Employees(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Tuples()
}

var hr, it = oracle.Eq("dept", "HR"), oracle.Eq("dept", "IT")

// TestCacheMatchesSerialAcrossMutations drives a deterministic
// interleaving of every mutation kind against repeated cached queries on
// a durable store, holding every answer to the plaintext after each
// step. This is the correctness spine of the result cache: hits, delta
// scans after appends, invalidation after replace and drop, compaction
// and a crash and replay all happen on this path.
func TestCacheMatchesSerialAcrossMutations(t *testing.T) {
	r := oracle.New(t, nil, oracle.Durable())
	stats := r.Stores(0)[0].CacheStats
	read := oracle.Select(false, hr)
	r.Do(oracle.Put(employees(t, 120, 1)), read, read)
	if st := stats(); st.Hits == 0 {
		t.Fatalf("no cache hit recorded after repeat query: %+v", st)
	}
	for round, seed := range []int64{7, 8} {
		before := stats().Deltas
		r.Do(oracle.Append(employees(t, 30, seed)...), read)
		if st := stats(); st.Deltas == before {
			t.Fatalf("append round %d produced no delta scan: %+v", round, st)
		}
	}
	r.Do(oracle.Compact(), read,
		oracle.Put(employees(t, 90, 2)), read,
		oracle.Drop(), oracle.Put(employees(t, 120, 1)), read,
		oracle.Reopen(fault.FilePlan{}), read)
}

// TestQuerySharedScanMatchesSerial drives cold queries, one per
// department in flight at once (a batch's plans run concurrently),
// through the store's single-flight miss path — a fresh table each round,
// so every query is a miss — and holds each answer to the plaintext.
func TestQuerySharedScanMatchesSerial(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	var depts []relation.Eq
	for _, dept := range workload.Departments {
		depts = append(depts, oracle.Eq("dept", dept))
	}
	for range 3 {
		r.Do(oracle.Put(employees(t, 2000, 11)), oracle.Many(false, depts...))
	}
	if st := r.Stores(0)[0].ShareStats(); st.Passes+st.Attached != uint64(3*len(depts)) {
		t.Fatalf("share stats = %+v, want every miss to have scanned or attached", st)
	}
}

// TestQueryVerifiedThroughSharer checks the verified-read path still
// answers correctly when its miss goes through the sharer.
func TestQueryVerifiedThroughSharer(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 1500, 17)), oracle.Select(true, oracle.Eq("dept", "SALES")))
	if st := r.Stores(0)[0].ShareStats(); st.Passes != 1 {
		t.Fatalf("share stats = %+v, verified miss bypassed the sharer", st)
	}
}

// TestQueryConjMatchesIntersection: the planner's conjunctions —
// overlapping, disjoint, repeated, three-way and single — answer exactly
// the plaintext intersection, plain and verified.
func TestQueryConjMatchesIntersection(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 300, 5)))
	for _, verified := range []bool{false, true} {
		r.Do(oracle.Conj(verified, hr, oracle.Eq("salary", 1234)),
			oracle.Conj(verified, hr, it),
			oracle.Conj(verified, hr, hr),
			oracle.Conj(verified, it, oracle.Eq("name", "nobody"), oracle.Eq("salary", 1)),
			oracle.Conj(verified, oracle.Eq("dept", "FIN")))
	}
}

// TestQueryConjDeltaAfterAppend: a conjunct cached before an append is
// completed by scanning only the tail.
func TestQueryConjDeltaAfterAppend(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 128, 5)), oracle.Select(false, hr), oracle.Select(false, it),
		oracle.Append(employees(t, 32, 77)...))
	before := r.Stores(0)[0].CacheStats()
	r.Do(oracle.Conj(false, hr, it))
	if after := r.Stores(0)[0].CacheStats(); after.Misses != before.Misses || after.Deltas == before.Deltas {
		t.Fatalf("a conjunct full-scanned after the append despite its cached prefix: %+v -> %+v", before, after)
	}
}

// TestVerifiedConjSnapshotConsistent: a verified conjunction's proofs
// verify against the pinned root, a tampered one is refused, and the
// answer is the plain conjunction's.
func TestVerifiedConjSnapshotConsistent(t *testing.T) {
	plain := employees(t, 200, 5)
	i := slices.IndexFunc(plain, func(tp relation.Tuple) bool { return tp[1].Equal(hr.Value) })
	if i < 0 {
		t.Fatal("fixture has no HR employee")
	}
	conj := []relation.Eq{hr, {Column: "salary", Value: plain[i][2]}}
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(plain), oracle.Conj(true, conj...).Tampered(), oracle.Conj(false, conj...))
	if c := r.Seen[oracle.Cell{Kind: oracle.OpConj, Verified: true, Topology: "memory"}]; c.NonEmpty != 1 || c.Rejected != 1 {
		t.Fatalf("the conjunction matched nothing, or its tampered answer went unrefused: %+v", c)
	}
}

// TestConjDriverRidesSharedPass checks that a cold conjunctive query's
// driver-conjunct full scan — and no narrowing step — goes through the
// sharer, and that the answer is the plaintext intersection.
func TestConjDriverRidesSharedPass(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 2000, 13)), oracle.Conj(false, it, oracle.Eq("name", "Alan001")))
	if st := r.Stores(0)[0].ShareStats(); st.Passes != 1 {
		t.Fatalf("share stats = %+v, want the driver's scan — and only it — through the sharer", st)
	}
}

// TestQueryVerifiedConsistentSnapshot: a verified answer's proofs verify
// against the pinned root, and a tampered one is refused.
func TestQueryVerifiedConsistentSnapshot(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 50, 3)), oracle.Select(true, hr).Tampered())
	if c := r.Seen[oracle.Cell{Kind: oracle.OpSelect, Verified: true, Topology: "memory"}]; c.NonEmpty != 1 || c.Rejected != 1 {
		t.Fatalf("the select matched nothing, or its tampered answer went unrefused: %+v", c)
	}
}

// TestQueryVerifiedUsesCache: the verified path goes through the same
// result cache as the plain one, and an answer served from the cache
// verifies against the pinned root.
func TestQueryVerifiedUsesCache(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 2048, 3)), oracle.Select(true, hr))
	before := r.Stores(0)[0].CacheStats()
	r.Do(oracle.Select(true, hr))
	if after := r.Stores(0)[0].CacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("second verified query was not a cache hit (hits %d -> %d)", before.Hits, after.Hits)
	}
}

// TestPersistenceReplay: what a durable store acknowledged replays after
// a crash — appends included, a dropped table staying dropped.
func TestPersistenceReplay(t *testing.T) {
	r := oracle.New(t, nil, oracle.Durable())
	r.Do(oracle.Put(employees(t, 2, 1)), oracle.Append(employees(t, 1, 2)...), oracle.Reopen(fault.FilePlan{}), oracle.All(),
		oracle.Drop(), oracle.Reopen(fault.FilePlan{}))
}

// TestCrashRecoveryNoAckedLoss is the acceptance crash test for
// SyncAlways: every acknowledged mutation survives an abrupt process
// death. The crash abandons the store without closing it — no
// user-space flush can save the day, so the test fails if any
// acknowledged record was still sitting in a buffer.
func TestCrashRecoveryNoAckedLoss(t *testing.T) {
	r := oracle.New(t, nil, oracle.Durable())
	r.Do(oracle.Put(employees(t, 4, 1)))
	for i := range 17 {
		r.Do(oracle.Append(employees(t, 1, int64(i))...))
	}
	r.Do(oracle.Reopen(fault.FilePlan{}), oracle.All())
}

// TestCompactShrinksAndPreserves: compaction after churn shrinks the log,
// and the table survives it in memory and across a crash, appends after
// it included; a dropped table stays dropped through a compaction.
func TestCompactShrinksAndPreserves(t *testing.T) {
	r := oracle.New(t, nil, oracle.Durable())
	for range 10 {
		r.Do(oracle.Put(employees(t, 4, 1)))
	}
	r.Do(oracle.Append(employees(t, 2, 2)...))
	st := r.Stores(0)[0]
	before, err := st.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	r.Do(oracle.Compact())
	if after, err := st.LogSize(); err != nil || after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d (%v)", before, after, err)
	}
	r.Do(oracle.All(), oracle.Append(employees(t, 1, 3)...), oracle.Reopen(fault.FilePlan{}), oracle.All(),
		oracle.Drop(), oracle.Compact(), oracle.Reopen(fault.FilePlan{}))
}

// TestExplainDoesNotExecute: an explained conjunction reports its plan
// over the whole table without scanning anything, and the real run after
// it answers the plaintext intersection.
func TestExplainDoesNotExecute(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 256, 5)))
	info, err := r.DB(0).Explain("SELECT * FROM emp WHERE dept = 'HR' AND salary = 1234")
	if err != nil || !strings.HasPrefix(info, "plan for emp (256 tuples):") || strings.Count(info, "via ") != 2 || strings.Contains(info, "tested") {
		t.Fatalf("explain: %q, %v", info, err)
	}
	if st := r.Stores(0)[0].ShareStats(); st.Passes != 0 {
		t.Fatalf("explain scanned: %+v", st)
	}
	r.Do(oracle.Conj(false, hr, oracle.Eq("salary", 1234)))
}

// TestQueryConjCachesConjuncts: the driver's full position set lands in
// the result cache, so a repeated conjunct is a hit even in a brand-new
// combination.
func TestQueryConjCachesConjuncts(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 200, 5)), oracle.Conj(false, hr, it))
	before := r.Stores(0)[0].CacheStats()
	r.Do(oracle.Conj(false, hr, oracle.Eq("salary", 99)))
	if after := r.Stores(0)[0].CacheStats(); after.Hits == before.Hits {
		t.Fatalf("repeated conjunct not served from the cache: %+v -> %+v", before, after)
	}
}

// TestAppendAndDrop: an append to a table that is not there is refused,
// appends extend the table, and a second drop is refused.
func TestAppendAndDrop(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Append(employees(t, 1, 1)...), oracle.Put(employees(t, 2, 2)), oracle.Append(employees(t, 3, 3)...),
		oracle.All(), oracle.Drop(), oracle.Drop())
}

// TestPutReplacesTree: replacing a table retires its tree — verified
// reads after the replacement are held to the new tuples' root.
func TestPutReplacesTree(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 8, 1)), oracle.Select(true, hr), oracle.Put(employees(t, 8, 2)),
		oracle.Select(true, hr).Tampered(), oracle.Many(true, hr, it))
}

// TestRootIncrementalMatchesRebuild: the store-maintained root equals
// the one the client builds from the table it uploaded and the tuples it
// appended, after every append (verified reads hold the first to the
// second), and the store's version advances each time.
func TestRootIncrementalMatchesRebuild(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 5, 1)))
	var last uint64
	for step := range 6 {
		r.Do(oracle.Append(employees(t, step+1, int64(step))...), oracle.Many(true, hr, it))
		_, _, ver, err := r.Stores(0)[0].Root("emp")
		if err != nil || ver <= last {
			t.Fatalf("step %d: version %d after %d (%v)", step, ver, last, err)
		}
		last = ver
	}
}

// TestRootSurvivesReplay: a replayed durable store serves the root of
// the store that wrote the log — a client holding only the persisted
// anchor verifies against it.
func TestRootSurvivesReplay(t *testing.T) {
	r := oracle.New(t, nil, oracle.Durable())
	r.Do(oracle.Put(employees(t, 10, 1)), oracle.Append(employees(t, 5, 2)...), oracle.Reopen(fault.FilePlan{}),
		oracle.Select(true, hr).Tampered(), oracle.Many(true, hr, it))
}

// TestQueryDispatch: a select answers its match, and a select of a table
// that is not there is refused.
func TestQueryDispatch(t *testing.T) {
	r := oracle.New(t, nil, oracle.Memory())
	r.Do(oracle.Put(employees(t, 2, 1)), oracle.Select(false, hr), oracle.Drop(), oracle.Select(false, hr))
}

// TestDiskFullDegradation is the chaos drill for the disk-full
// contract: when the log cannot grow, the store degrades to refusing
// mutations — before they touch memory — and keeps serving reads; it
// must not corrupt, and what was durable must replay.
func TestDiskFullDegradation(t *testing.T) {
	r := oracle.New(t, nil, oracle.Durable())
	r.Do(oracle.Reopen(fault.FilePlan{FailWriteAfterBytes: 1024}), oracle.Put(employees(t, 3, 1)))
	wantRoot, _, _, err := r.Stores(0)[0].Root("emp")
	if err != nil {
		t.Fatal(err)
	}
	// Blow the budget with a batch far larger than the remaining space;
	// the next append is refused without touching memory.
	r.Do(oracle.Append(employees(t, 200, 2)...))
	before, err := r.Stores(0)[0].Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	r.Do(oracle.Append(employees(t, 1, 3)...))
	if after, err := r.Stores(0)[0].Get("emp"); err != nil || len(after.Tuples) != len(before.Tuples) {
		t.Fatalf("refused mutation leaked into memory: %d tuples then %v (%v)", len(before.Tuples), after, err)
	}
	if c := r.Seen[oracle.Cell{Kind: oracle.OpAppend, Topology: "durable"}]; c == nil || c.Faulted != 2 {
		t.Fatalf("appends past the disk accepted: %+v", c)
	}
	if _, err := r.Plain(0).Select(hr); err != nil {
		t.Fatalf("read refused on a full disk: %v", err)
	}
	// Recovery: reopen with space freed. Only what the log's checksums
	// vouch for comes back — the table before the overflow — and it
	// takes appends again.
	r.Do(oracle.Reopen(fault.FilePlan{}))
	if root, n, _, err := r.Stores(0)[0].Root("emp"); err != nil || n != 3 || !bytes.Equal(root, wantRoot) {
		t.Fatalf("recovered root diverges: %d tuples %x (%v), want 3 tuples %x", n, root, err, wantRoot)
	}
	r.Do(oracle.Append(employees(t, 1, 4)...), oracle.All())
}

// TestWALCrashMidAppend: a crash at a seeded byte of the log, during a
// put and an append, leaves a torn tail that replay truncates; the
// reopened store is exactly the durable prefix — no table, the put, or
// both — and takes appends if it has the table.
func TestWALCrashMidAppend(t *testing.T) {
	put, add := oracle.Put(employees(t, 3, 1)), oracle.Append(employees(t, 4, 2)...)
	r := oracle.New(t, nil, oracle.Durable())
	start, err := r.Stores(0)[0].LogSize()
	if err != nil {
		t.Fatal(err)
	}
	r.Do(put, add)
	full, err := r.Stores(0)[0].LogSize()
	if err != nil {
		t.Fatal(err)
	}
	full -= start
	for seed := uint64(1); seed <= 5; seed++ {
		r := oracle.New(t, nil, oracle.Durable())
		r.Do(oracle.Reopen(fault.FilePlan{CrashAtByte: fault.Point(seed, full-1)}), put, add)
		if c := r.Seen[oracle.Cell{Kind: oracle.OpPut, Topology: "durable"}]; c == nil {
			if c = r.Seen[oracle.Cell{Kind: oracle.OpAppend, Topology: "durable"}]; c == nil {
				t.Fatalf("seed %d: a crash inside the log's %d bytes never surfaced", seed, full)
			}
		}
		r.Do(oracle.Reopen(fault.FilePlan{}), oracle.Append(employees(t, 1, 3)...), oracle.All())
	}
}
