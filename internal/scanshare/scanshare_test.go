package scanshare_test

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
	"repro/internal/scanshare"
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

// scan runs q through the memo's single-flight the way storage does,
// under q's key on table object 1: over the whole fixture table, the
// scan itself being core.EvaluateSlab. before, when non-nil, runs first
// on whichever goroutine leads — the tests' handle for holding a leader
// while followers arrive.
func (f *fixture) scan(s *cache.Cache, q *ph.EncryptedQuery, before func()) ([]int, error) {
	return s.Scan(cache.Key{Table: 1, Token: sha256.Sum256(q.Token)}, len(f.et.Tuples), func() ([]int, error) {
		if before != nil {
			before()
		}
		return core.EvaluateSlab(ph.NewSlab(f.et), q, 0, nil)
	})
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

// riders scans every query at once, each on its own goroutine, and holds
// every answer to the serial scan.
func (f *fixture) riders(t *testing.T, s *cache.Cache, queries ...*ph.EncryptedQuery) {
	t.Helper()
	results := make([][]int, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if results[i], err = f.scan(s, q, nil); err != nil {
				t.Errorf("rider %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, q := range queries {
		if want := serialPositions(t, f.et, q); !reflect.DeepEqual(results[i], want) {
			t.Fatalf("rider %d diverges from serial (%d vs %d hits)", i, len(results[i]), len(want))
		}
	}
}

// assertIdle checks that no flight of q outlives its Scan calls: the
// next identical query scans afresh (and counts one pass).
func (f *fixture) assertIdle(t *testing.T, s *cache.Cache, q *ph.EncryptedQuery) {
	t.Helper()
	ran := false
	if _, err := f.scan(s, q, func() { ran = true }); err == nil && !ran {
		t.Fatal("an identical query attached to a flight with no scan running")
	}
}

// lead starts a scan of q whose leader holds inside its scan, and
// returns once it is there; release lets it go and returns its outcome.
func (f *fixture) lead(s *cache.Cache, q *ph.EncryptedQuery) (release func() ([]int, error)) {
	started, held, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var got []int
	var err error
	go func() {
		defer close(done)
		got, err = f.scan(s, q, func() { close(started); <-held })
	}()
	<-started
	return func() ([]int, error) { close(held); <-done; return got, err }
}

// waitAttached polls until want queries are parked on a leader's flight.
func waitAttached(t *testing.T, s *cache.Cache, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.ShareStats().Attached < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries attached", s.ShareStats().Attached, want)
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
	s := cache.New(0)
	for _, dept := range []string{"HR", "FIN", "IT"} {
		q := f.query(t, "dept", dept)
		f.riders(t, s, q)
		f.assertIdle(t, s, q)
	}
	if st := s.ShareStats(); st != (scanshare.Stats{Passes: 6, Riders: 6}) {
		t.Fatalf("stats = %+v, want 3 scans, 3 idle probes and nothing else", st)
	}
}

func TestManyRidersMatchSerial(t *testing.T) {
	f := newFixture(t, 8300, 2)
	s := cache.New(0)
	queries := make([]*ph.EncryptedQuery, 24)
	for i := range queries {
		if i%3 == 0 { // departments repeat, so some of these are identical
			queries[i] = f.query(t, "dept", workload.Departments[i%len(workload.Departments)])
		} else {
			queries[i] = f.query(t, "name", fmt.Sprintf("Ada%03d", i))
		}
	}
	f.riders(t, s, queries...)
	if st := s.ShareStats(); st.Passes+st.Attached != uint64(len(queries)) {
		t.Fatalf("stats = %+v, want every query to have scanned or attached", st)
	}
	f.assertIdle(t, s, queries[0])
}

// TestAttachedRidersShareOneScan holds a leader inside its scan until an
// identical query has attached: one scan, one budget allotment, one
// position slice for both. A query for the same token over a different
// snapshot length must not attach — it completes while the leader is
// still held.
func TestAttachedRidersShareOneScan(t *testing.T) {
	f := newFixture(t, 8300, 3)
	s := cache.New(0)
	q := f.query(t, "dept", "SALES")
	budget := swapBudget(t)

	release := f.lead(s, q)
	var follower []int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		follower, _ = f.scan(s, q, func() { t.Error("an identical query in flight scanned again") })
	}()
	waitAttached(t, s, 1)

	shorter := len(f.et.Tuples) - 1
	if _, err := s.Scan(cache.Key{Table: 1, Token: sha256.Sum256(q.Token)}, shorter, func() ([]int, error) { return []int{}, nil }); err != nil {
		t.Fatal(err)
	}
	leader, err := release()
	wg.Wait()
	if want := serialPositions(t, f.et, q); err != nil || !reflect.DeepEqual(leader, want) || !reflect.DeepEqual(follower, want) {
		t.Fatalf("leader (%v) or follower diverges from serial", err)
	}
	if st := s.ShareStats(); st != (scanshare.Stats{Passes: 2, Riders: 2, Attached: 1}) {
		t.Fatalf("stats = %+v, want the leader's and the shorter snapshot's scans and 1 attached", st)
	}
	if bst := budget.Stats(); bst.Acquires != 1 || bst.Releases != 1 {
		t.Fatalf("budget stats = %+v, want one allotment for leader and follower together", bst)
	}
	f.assertIdle(t, s, q)
}

// TestBadTokenFailsLikeEvaluate: a leader failing the way the evaluator
// fails hands each attached query that same error and leaves nothing
// behind — the next identical query scans afresh.
func TestBadTokenFailsLikeEvaluate(t *testing.T) {
	f := newFixture(t, 1200, 4)
	s := cache.New(0)
	bad := &ph.EncryptedQuery{SchemeID: core.SchemeID, Token: []byte{1, 2, 3}}
	_, wantErr := core.EvaluateSerial(f.et, bad)
	if wantErr == nil {
		t.Fatal("bad token evaluated")
	}

	const waiters = 3
	release := f.lead(s, bad)
	errs := make([]error, 1+waiters)
	var wg sync.WaitGroup
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.scan(s, bad, nil)
		}(i)
	}
	waitAttached(t, s, waiters)
	_, errs[0] = release()
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("query %d: error %v, want the evaluator's %q", i, err, wantErr)
		}
		if err != errs[0] {
			t.Fatalf("query %d got its own error value, not the leader's", i)
		}
	}

	ran := false
	if _, err := f.scan(s, bad, func() { ran = true }); err == nil || !ran {
		t.Fatalf("identical query after the failure: ran=%v err=%v, want a fresh failing scan", ran, err)
	}
	if st := s.ShareStats(); st != (scanshare.Stats{Passes: 2, Riders: 2, Attached: waiters}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightRemovedBeforeWaitersReleased: the moment a waiter has its
// answer, an identical query must start a scan of its own — it may never
// attach to the finished one, whose snapshot is by then history.
func TestFlightRemovedBeforeWaitersReleased(t *testing.T) {
	f := newFixture(t, 1200, 5)
	s := cache.New(0)
	q := f.query(t, "dept", "OPS")

	release := f.lead(s, q)
	var wg sync.WaitGroup
	wg.Add(1)
	rescanned := false
	go func() {
		defer wg.Done()
		if _, err := f.scan(s, q, nil); err != nil {
			t.Error(err)
		}
		if _, err := f.scan(s, q, func() { rescanned = true }); err != nil {
			t.Error(err)
		}
	}()
	waitAttached(t, s, 1)
	if _, err := release(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if st := s.ShareStats(); !rescanned || st.Attached != 1 {
		t.Fatalf("rescanned=%v, stats %+v: the waiter's next query attached to a finished scan", rescanned, st)
	}
}

// TestSmallTableServedInline: a table too small to shard takes the same
// single-flight and core keeps its scan on the caller's goroutine — no
// budget allotment.
func TestSmallTableServedInline(t *testing.T) {
	f := newFixture(t, 200, 6)
	s := cache.New(0)
	budget := swapBudget(t)
	f.riders(t, s, f.query(t, "dept", "IT"))
	if bst := budget.Stats(); bst.Acquires != 0 {
		t.Fatalf("budget stats = %+v, want no allotment for a 200-tuple scan", bst)
	}
}

func TestEmptySnapshot(t *testing.T) {
	f := newFixture(t, 10, 7)
	f.et.Tuples = nil
	got, err := f.scan(cache.New(0), f.query(t, "dept", "FIN"), nil)
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
	s := cache.New(0)
	budget := swapBudget(t)
	const riders = 16
	queries := make([]*ph.EncryptedQuery, riders)
	for i := range queries {
		queries[i] = f.query(t, "name", fmt.Sprintf("Grace%02d", i))
	}
	f.riders(t, s, queries...)
	if st := s.ShareStats(); st != (scanshare.Stats{Passes: riders, Riders: riders}) {
		t.Fatalf("stats = %+v, want %d scans and none attached", st, riders)
	}
	if bst := budget.Stats(); bst.Acquires != riders || bst.Releases != riders {
		t.Fatalf("budget stats = %+v, want %d allotments drawn and returned", bst, riders)
	}
	if idle := budget.Idle(); idle != runtime.GOMAXPROCS(0) {
		t.Fatalf("budget idle = %d, want full capacity %d back", idle, runtime.GOMAXPROCS(0))
	}
}
