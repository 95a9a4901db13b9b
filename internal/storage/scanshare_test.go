package storage

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/workload"
)

// shareFixture builds an encrypted employees table plus the scheme to
// mint trapdoors with.
type shareFixture struct {
	table  *relation.Table
	scheme *core.PH
	et     *ph.EncryptedTable
}

func newShareFixture(t testing.TB, tuples int, seed int64) *shareFixture {
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
	return &shareFixture{table: table, scheme: scheme, et: et}
}

func (f *shareFixture) query(t testing.TB, col, val string) *ph.EncryptedQuery {
	t.Helper()
	q, err := f.scheme.EncryptQuery(relation.Eq{Column: col, Value: relation.String(val)})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func serialGroundTruth(t testing.TB, et *ph.EncryptedTable, q *ph.EncryptedQuery) []int {
	t.Helper()
	res, err := core.EvaluateSerial(et, q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Positions
}

// TestQuerySharedScanMatchesSerial drives repeated cold queries through
// the store's single-flight miss path (cache disabled so every query is
// a miss; one per department in flight at once) and checks each answer
// against the serial evaluator.
func TestQuerySharedScanMatchesSerial(t *testing.T) {
	f := newShareFixture(t, 2000, 11)
	s := NewMemory()
	s.SetResultCache(nil)
	if err := s.Put("emp", f.et); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, dept := range workload.Departments {
			wg.Add(1)
			go func(dept string) {
				defer wg.Done()
				q := f.query(t, "dept", dept)
				res, err := s.Query("emp", q)
				if err != nil {
					t.Errorf("Query(%s): %v", dept, err)
					return
				}
				want := serialGroundTruth(t, f.et, q)
				if !reflect.DeepEqual(res.Positions, want) {
					t.Errorf("Query(%s): %d positions, serial says %d", dept, len(res.Positions), len(want))
				}
			}(dept)
		}
		wg.Wait()
	}
	if st := s.ShareStats(); st.Passes+st.Attached != uint64(3*len(workload.Departments)) {
		t.Fatalf("share stats = %+v, want every miss to have scanned or attached", st)
	}
}

// stripedEmployees builds a table where dept == "FIN" exactly at
// positions that are multiples of stride, so any snapshot prefix has a
// predictable match set.
func stripedEmployees(t testing.TB, n, stride int) (*relation.Table, error) {
	t.Helper()
	tab := relation.NewTable(workload.EmployeeSchema())
	for i := 0; i < n; i++ {
		dept := "OPS"
		if i%stride == 0 {
			dept = "FIN"
		}
		err := tab.Insert(relation.Tuple{
			relation.String(fmt.Sprintf("E%07d", i)),
			relation.String(dept),
			relation.Int(int64(1000 + i)),
		})
		if err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// TestSharedScanDuringAppends runs eight streams of the same cold query —
// leaders and attached waiters by turns — while the table is being
// appended to, under -race. The evaluator is
// deterministic and tuple-local, so the match set of any snapshot prefix
// of n tuples is exactly the full-table match set truncated below n —
// every answer must therefore be a prefix of the full-table serial scan,
// at least as long as the pre-storm prefix's. A torn answer (mixing two
// snapshot prefixes) or a stale cache writeback (tagged with a version
// whose tuples it did not scan) breaks that prefix structure.
func TestSharedScanDuringAppends(t *testing.T) {
	const (
		base   = 2048
		total  = 3072
		stride = 16
		batch  = 128
	)
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	table, err := stripedEmployees(t, total, stride)
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
	s := NewMemory()
	head := &ph.EncryptedTable{SchemeID: et.SchemeID, Meta: et.Meta, Tuples: et.Tuples[:base]}
	if err := s.Put("emp", head); err != nil {
		t.Fatal(err)
	}
	q, err := scheme.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String("FIN")})
	if err != nil {
		t.Fatal(err)
	}

	fullMatch := serialGroundTruth(t, et, q)
	atBase := 0
	for _, p := range fullMatch {
		if p < base {
			atBase++
		}
	}
	check := func(positions []int) error {
		n := len(positions)
		if n < atBase || n > len(fullMatch) {
			return fmt.Errorf("%d hits, want between %d and %d", n, atBase, len(fullMatch))
		}
		if !reflect.DeepEqual(positions, fullMatch[:n]) {
			return fmt.Errorf("answer is not a snapshot-prefix match set: mixes prefixes or stale writeback")
		}
		return nil
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query("emp", q)
				if err != nil {
					t.Error(err)
					return
				}
				if err := check(res.Positions); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for lo := base; lo < total; lo += batch {
		hi := min(lo+batch, total)
		if err := s.Append("emp", et.Tuples[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Post-quiesce staleness probe: after all appends have landed, the
	// cache entry written back by whichever scan ran last must reconcile
	// (via hit or delta) to the full-table answer.
	res, err := s.Query("emp", q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Positions), len(fullMatch); got != want {
		t.Fatalf("post-quiesce query saw %d hits, want %d: stale cache writeback", got, want)
	}
	full, err := s.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if want := serialGroundTruth(t, full, q); !reflect.DeepEqual(res.Positions, want) {
		t.Fatal("post-quiesce query diverges from serial scan of the final table")
	}
}

// TestConjDriverRidesSharedPass checks that a cold conjunctive query's
// driver-conjunct full scan — and no narrowing step — goes through the
// sharer, and that the answer matches the intersection of the serial
// per-conjunct scans.
func TestConjDriverRidesSharedPass(t *testing.T) {
	f := newShareFixture(t, 2000, 13)
	s := NewMemory()
	s.SetResultCache(nil)
	if err := s.Put("emp", f.et); err != nil {
		t.Fatal(err)
	}
	qs := []*ph.EncryptedQuery{
		f.query(t, "dept", "IT"),
		f.query(t, "name", "Alan001"),
	}
	res, _, err := s.QueryConj("emp", qs)
	if err != nil {
		t.Fatal(err)
	}
	inter := map[int]int{}
	for _, q := range qs {
		for _, p := range serialGroundTruth(t, f.et, q) {
			inter[p]++
		}
	}
	var want []int
	for p := 0; p < len(f.et.Tuples); p++ {
		if inter[p] == len(qs) {
			want = append(want, p)
		}
	}
	if len(res.Positions) != len(want) || (want != nil && !reflect.DeepEqual(res.Positions, want)) {
		t.Fatalf("conj positions = %v, want %v", res.Positions, want)
	}
	if st := s.ShareStats(); st.Passes != 1 {
		t.Fatalf("share stats = %+v, want the driver's scan — and only it — through the sharer", st)
	}
}

// TestQueryVerifiedThroughSharer checks the verified-read path still
// answers correctly when its miss goes through the sharer.
func TestQueryVerifiedThroughSharer(t *testing.T) {
	f := newShareFixture(t, 1500, 17)
	s := NewMemory()
	s.SetResultCache(nil)
	if err := s.Put("emp", f.et); err != nil {
		t.Fatal(err)
	}
	q := f.query(t, "dept", "SALES")
	vr, err := s.QueryVerified("emp", q)
	if err != nil {
		t.Fatal(err)
	}
	want := serialGroundTruth(t, f.et, q)
	if !reflect.DeepEqual(vr.Result.Positions, want) {
		t.Fatalf("verified positions diverge from serial (%d vs %d)", len(vr.Result.Positions), len(want))
	}
	if st := s.ShareStats(); st.Passes != 1 {
		t.Fatalf("share stats = %+v, verified miss bypassed the sharer", st)
	}
}

// heldScheme is the paper's construction under another name, with one
// difference: while hold is set, a scan announces itself on entered and
// then waits for release. Only a scan gets here — a query that attaches to
// one never calls the scheme — which is what lets TestColdHerdCounts park
// a leader until its whole herd has attached. That a relabelled scheme is
// served at all is the single-flight working for any registered scheme.
const heldScheme = "storage-held"

var hold *struct{ entered, release chan struct{} }

func init() {
	ph.RegisterNarrower(heldScheme, func(et *ph.EncryptedTable, q *ph.EncryptedQuery, candidates []int) ([]int, error) {
		if h := hold; h != nil {
			h.entered <- struct{}{}
			<-h.release
		}
		return core.EvaluateOn(
			&ph.EncryptedTable{SchemeID: core.SchemeID, Meta: et.Meta, Tuples: et.Tuples},
			&ph.EncryptedQuery{SchemeID: core.SchemeID, Token: q.Token}, candidates)
	})
}

// TestColdHerdCounts is the count gate that replaced E21's wall-clock
// one. 64 identical cold queries, the leader held until the other 63 have
// attached: exactly one scan, one scheduler allotment, 64 answers
// byte-identical to core.EvaluateSerial that decrypt to relation.Select's.
// Then 16 distinct concurrent cold queries: 16 scans, one allotment each.
func TestColdHerdCounts(t *testing.T) {
	f := newShareFixture(t, 8192, 23)
	table, scheme, et := f.table, f.scheme, f.et
	s := NewMemory()
	if err := s.Put("emp", &ph.EncryptedTable{SchemeID: heldScheme, Meta: et.Meta, Tuples: et.Tuples}); err != nil {
		t.Fatal(err)
	}
	budget := sched.NewBudget(runtime.GOMAXPROCS(0))
	defer sched.SetProcess(sched.SetProcess(budget))

	// herd sends every query at once and checks every answer.
	herd := func(eqs []relation.Eq) {
		t.Helper()
		results := make([]*ph.Result, len(eqs))
		errs := make([]error, len(eqs))
		qs := make([]*ph.EncryptedQuery, len(eqs))
		for i, eq := range eqs {
			var err error
			if qs[i], err = scheme.EncryptQuery(eq); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i, q := range qs {
			wg.Add(1)
			go func(i int, q *ph.EncryptedQuery) {
				defer wg.Done()
				results[i], errs[i] = s.Query("emp", q)
			}(i, &ph.EncryptedQuery{SchemeID: heldScheme, Token: q.Token})
			if hold != nil && i == 0 {
				<-hold.entered // the leader is inside its scan; the rest can only attach
			}
		}
		if hold != nil {
			deadline := time.Now().Add(10 * time.Second)
			for s.ShareStats().Attached < uint64(len(eqs)-1) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d queries attached", s.ShareStats().Attached, len(eqs)-1)
				}
				time.Sleep(time.Millisecond)
			}
			close(hold.release)
		}
		wg.Wait()
		for i, eq := range eqs {
			if errs[i] != nil {
				t.Fatalf("query %d: %v", i, errs[i])
			}
			want, err := core.EvaluateSerial(et, qs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i], want) {
				t.Fatalf("query %d (%s) is not byte-identical to the serial scan", i, eq)
			}
			dec, err := scheme.DecryptResult(eq, results[i])
			if err != nil {
				t.Fatal(err)
			}
			if sel, err := relation.Select(table, eq); err != nil || !dec.Equal(sel) {
				t.Fatalf("query %d (%s) does not decrypt to the plaintext selection (%v)", i, eq, err)
			}
		}
	}

	identical := make([]relation.Eq, 64)
	for i := range identical {
		identical[i] = relation.Eq{Column: "dept", Value: relation.String("FIN")}
	}
	hold = &struct{ entered, release chan struct{} }{make(chan struct{}), make(chan struct{})}
	herd(identical)
	hold = nil
	if st := s.ShareStats(); st.Passes != 1 || st.Attached != 63 {
		t.Fatalf("share stats = %+v, want 1 scan and 63 attached", st)
	}
	if bst := budget.Stats(); bst.Acquires != 1 || bst.Releases != 1 {
		t.Fatalf("budget stats = %+v, want the herd to cost one allotment", bst)
	}

	distinct := make([]relation.Eq, 16)
	for i := range distinct {
		distinct[i] = relation.Eq{Column: "name", Value: table.Tuple(i * 100)[0]}
	}
	herd(distinct)
	st, bst := s.ShareStats(), budget.Stats()
	if st.Passes+st.Attached != 1+63+16 || bst.Acquires != st.Passes || bst.Releases != bst.Acquires {
		t.Fatalf("share stats %+v, budget stats %+v: want every query scanned or attached, one allotment per scan", st, bst)
	}
}
