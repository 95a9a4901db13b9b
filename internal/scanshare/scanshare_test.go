package scanshare

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fixture is an encrypted employees table plus ready-made query tokens.
type fixture struct {
	scheme *core.PH
	et     *ph.EncryptedTable
}

func newFixture(t testing.TB, tuples int, seed int64) *fixture {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	table, err := workload.Employees(tuples, seed)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.New(key, table.Schema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	et, err := scheme.EncryptTable(table)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{scheme: scheme, et: et}
}

func (f *fixture) query(t testing.TB, col, val string) *ph.EncryptedQuery {
	t.Helper()
	q, err := f.scheme.EncryptQuery(relation.Eq{Column: col, Value: relation.String(val)})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// scan runs q through the sharer the way storage does: over the whole
// fixture table, the scan itself being core.EvaluateSlab. before, when non-nil,
// runs first on whichever goroutine leads — the tests' handle for holding
// a leader while followers arrive.
func (f *fixture) scan(s *Sharer, table uint64, q *ph.EncryptedQuery, before func()) ([]int, error) {
	return s.Scan(key(table, q), len(f.et.Tuples), func() ([]int, error) {
		if before != nil {
			before()
		}
		return core.EvaluateSlab(ph.NewSlab(f.et), q, 0, nil)
	})
}

// key is q's cache key on the table object numbered table, the key
// storage hands the sharer.
func key(table uint64, q *ph.EncryptedQuery) cache.Key {
	return cache.Key{Table: table, Token: sha256.Sum256(q.Token)}
}

// serialPositions is the ground truth: EvaluateSerial over the table.
func serialPositions(t testing.TB, et *ph.EncryptedTable, q *ph.EncryptedQuery) []int {
	t.Helper()
	res, err := core.EvaluateSerial(et, q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Positions
}

// assertIdle checks that no flight outlives its Scan calls.
func assertIdle(t *testing.T, s *Sharer) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.inflight); n != 0 {
		t.Fatalf("sharer still holds %d flights with no scan running", n)
	}
}

// waitAttached polls until want queries are parked on a leader's flight.
func waitAttached(t *testing.T, s *Sharer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Attached < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries attached", s.Stats().Attached, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// swapBudget installs a fresh GOMAXPROCS-sized process budget for the
// test, so its counters see this test's scans only.
func swapBudget(t *testing.T) *sched.Budget {
	t.Helper()
	budget := sched.NewBudget(runtime.GOMAXPROCS(0))
	old := sched.SetProcess(budget)
	t.Cleanup(func() { sched.SetProcess(old) })
	return budget
}

func TestSingleRiderMatchesSerial(t *testing.T) {
	f := newFixture(t, 8300, 1)
	s := New()
	table := uint64(1)
	for _, dept := range []string{"HR", "FIN", "IT"} {
		q := f.query(t, "dept", dept)
		got, err := f.scan(s, table, q, nil)
		if err != nil {
			t.Fatalf("Scan(%s): %v", dept, err)
		}
		if want := serialPositions(t, f.et, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("dept %s: positions diverge from serial (%d vs %d hits)", dept, len(got), len(want))
		}
		assertIdle(t, s)
	}
	if st := s.Stats(); st != (Stats{Passes: 3, Riders: 3}) {
		t.Fatalf("stats = %+v, want 3 scans and nothing else", st)
	}
}

func TestManyRidersMatchSerial(t *testing.T) {
	f := newFixture(t, 8300, 2)
	s := New()
	table := uint64(1)
	queries := make([]*ph.EncryptedQuery, 24)
	for i := range queries {
		if i%3 == 0 { // departments repeat, so some of these are identical
			queries[i] = f.query(t, "dept", workload.Departments[i%len(workload.Departments)])
		} else {
			queries[i] = f.query(t, "name", fmt.Sprintf("Ada%03d", i))
		}
	}
	results := make([][]int, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q *ph.EncryptedQuery) {
			defer wg.Done()
			got, err := f.scan(s, table, q, nil)
			if err != nil {
				t.Errorf("rider %d: %v", i, err)
			}
			results[i] = got
		}(i, q)
	}
	wg.Wait()
	for i, q := range queries {
		if want := serialPositions(t, f.et, q); !reflect.DeepEqual(results[i], want) {
			t.Fatalf("rider %d diverges from serial (%d vs %d hits)", i, len(results[i]), len(want))
		}
	}
	assertIdle(t, s)
	if st := s.Stats(); st.Passes+st.Attached != uint64(len(queries)) {
		t.Fatalf("stats = %+v, want every query to have scanned or attached", st)
	}
}

// TestAttachedRidersShareOneScan holds a leader inside its scan until an
// identical query has attached: one scan, one budget allotment, one
// position slice for both. A query for the same token over a different
// snapshot length must not attach — it completes while the leader is
// still held.
func TestAttachedRidersShareOneScan(t *testing.T) {
	f := newFixture(t, 8300, 3)
	s := New()
	table := uint64(1)
	q := f.query(t, "dept", "SALES")
	budget := swapBudget(t)

	started, release := make(chan struct{}), make(chan struct{})
	results := make([][]int, 2)
	var wg sync.WaitGroup
	run := func(i int, before func()) {
		defer wg.Done()
		got, err := f.scan(s, table, q, before)
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
		results[i] = got
	}
	wg.Add(1)
	go run(0, func() { close(started); <-release })
	<-started
	wg.Add(1)
	go run(1, func() { t.Error("an identical query in flight scanned again") })
	waitAttached(t, s, 1)

	shorter := len(f.et.Tuples) - 1
	if _, err := s.Scan(key(table, q), shorter, func() ([]int, error) { return []int{}, nil }); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()

	want := serialPositions(t, f.et, q)
	for i := range results {
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("query %d diverges from serial", i)
		}
	}
	if st := s.Stats(); st != (Stats{Passes: 2, Riders: 2, Attached: 1}) {
		t.Fatalf("stats = %+v, want the leader's and the shorter snapshot's scans and 1 attached", st)
	}
	if bst := budget.Stats(); bst.Acquires != 1 || bst.Releases != 1 {
		t.Fatalf("budget stats = %+v, want one allotment for leader and follower together", bst)
	}
	assertIdle(t, s)
}

// TestBadTokenFailsLikeEvaluate: a leader failing the way the evaluator
// fails hands each attached query that same error and leaves nothing
// behind — the next identical query scans afresh.
func TestBadTokenFailsLikeEvaluate(t *testing.T) {
	f := newFixture(t, 1200, 4)
	s := New()
	table := uint64(1)
	bad := &ph.EncryptedQuery{SchemeID: core.SchemeID, Token: []byte{1, 2, 3}}
	_, wantErr := core.EvaluateSerial(f.et, bad)
	if wantErr == nil {
		t.Fatal("bad token evaluated")
	}

	const waiters = 3
	started, release := make(chan struct{}), make(chan struct{})
	errs := make([]error, 1+waiters)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = f.scan(s, table, bad, func() { close(started); <-release })
	}()
	<-started
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.scan(s, table, bad, nil)
		}(i)
	}
	waitAttached(t, s, waiters)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("query %d: error %v, want the evaluator's %q", i, err, wantErr)
		}
		if err != errs[0] {
			t.Fatalf("query %d got its own error value, not the leader's", i)
		}
	}
	assertIdle(t, s)

	ran := false
	if _, err := f.scan(s, table, bad, func() { ran = true }); err == nil || !ran {
		t.Fatalf("identical query after the failure: ran=%v err=%v, want a fresh failing scan", ran, err)
	}
	if st := s.Stats(); st != (Stats{Passes: 2, Riders: 2, Attached: waiters}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightRemovedBeforeWaitersReleased: the moment a waiter has its
// answer, an identical query must start a scan of its own — it may never
// attach to the finished one, whose snapshot is by then history.
func TestFlightRemovedBeforeWaitersReleased(t *testing.T) {
	f := newFixture(t, 1200, 5)
	s := New()
	table := uint64(1)
	q := f.query(t, "dept", "OPS")

	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := f.scan(s, table, q, func() { close(started); <-release }); err != nil {
			t.Error(err)
		}
	}()
	<-started
	rescanned := false
	go func() {
		defer wg.Done()
		if _, err := f.scan(s, table, q, nil); err != nil {
			t.Error(err)
		}
		if _, err := f.scan(s, table, q, func() { rescanned = true }); err != nil {
			t.Error(err)
		}
	}()
	waitAttached(t, s, 1)
	close(release)
	wg.Wait()
	if st := s.Stats(); !rescanned || st.Attached != 1 {
		t.Fatalf("rescanned=%v, stats %+v: the waiter's next query attached to a finished scan", rescanned, st)
	}
}

// TestSmallTableServedInline: a table too small to shard takes the same
// single-flight and core keeps its scan on the caller's goroutine — no
// budget allotment.
func TestSmallTableServedInline(t *testing.T) {
	f := newFixture(t, 200, 6)
	s := New()
	budget := swapBudget(t)
	q := f.query(t, "dept", "IT")
	got, err := f.scan(s, 1, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialPositions(t, f.et, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("small-table scan diverges from serial")
	}
	if bst := budget.Stats(); bst.Acquires != 0 {
		t.Fatalf("budget stats = %+v, want no allotment for a 200-tuple scan", bst)
	}
}

func TestEmptySnapshot(t *testing.T) {
	f := newFixture(t, 10, 7)
	f.et.Tuples = nil
	got, err := f.scan(New(), 1, f.query(t, "dept", "FIN"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("empty snapshot positions = %v, want empty non-nil", got)
	}
}

// TestSixteenRidersOneAllotment is the budget-discipline gate for
// distinct trapdoors: 16 concurrent riders are 16 scans, and each scan
// draws exactly one allotment from the scheduler budget and returns it.
func TestSixteenRidersOneAllotment(t *testing.T) {
	f := newFixture(t, 8192, 9)
	s := New()
	table := uint64(1)
	budget := swapBudget(t)
	const riders = 16
	results := make([][]int, riders)
	queries := make([]*ph.EncryptedQuery, riders)
	var wg sync.WaitGroup
	for i := range queries {
		queries[i] = f.query(t, "name", fmt.Sprintf("Grace%02d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := f.scan(s, table, queries[i], nil)
			if err != nil {
				t.Errorf("rider %d: %v", i, err)
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	for i := range results {
		if !reflect.DeepEqual(results[i], serialPositions(t, f.et, queries[i])) {
			t.Fatalf("rider %d diverges from serial", i)
		}
	}
	if st := s.Stats(); st != (Stats{Passes: riders, Riders: riders}) {
		t.Fatalf("stats = %+v, want %d scans and none attached", st, riders)
	}
	if bst := budget.Stats(); bst.Acquires != riders || bst.Releases != riders {
		t.Fatalf("budget stats = %+v, want %d allotments drawn and returned", bst, riders)
	}
	if idle := budget.Idle(); idle != budget.Capacity() {
		t.Fatalf("budget idle = %d, want full capacity %d back", idle, budget.Capacity())
	}
}
