package query

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/ph"
)

// The test scan matches a tuple when any word equals the token. It
// counts its whole-table passes and the tuples it tests, so tests can
// assert the planner's O(n + Σ|survivors|) shape, not just its answers.
var (
	fullScans   atomic.Int64
	testedCount atomic.Int64
)

// testScan is the scan over et a Plan runs.
func testScan(et *ph.EncryptedTable) func(q *ph.EncryptedQuery, from int, candidates []int) ([]int, error) {
	return func(q *ph.EncryptedQuery, from int, candidates []int) ([]int, error) {
		if candidates == nil { // nil = every position from from on
			if from == 0 {
				fullScans.Add(1)
			}
			testedCount.Add(int64(len(et.Tuples) - from))
			var pos []int
			for i := from; i < len(et.Tuples); i++ {
				if tupleMatches(et.Tuples[i], q.Token) {
					pos = append(pos, i)
				}
			}
			return pos, nil
		}
		testedCount.Add(int64(len(candidates)))
		var pos []int
		for _, p := range candidates {
			if tupleMatches(et.Tuples[p], q.Token) {
				pos = append(pos, p)
			}
		}
		return pos, nil
	}
}

func tupleMatches(tp ph.EncryptedTuple, token []byte) bool {
	for _, w := range tp.Words {
		if bytes.Equal(w, token) {
			return true
		}
	}
	return false
}

// testTable builds a table whose tuple i carries one word per column
// value; cols[c][i] is column c's value for tuple i.
func testTable(cols ...[]string) *ph.EncryptedTable {
	et := &ph.EncryptedTable{SchemeID: "plan-test"}
	n := len(cols[0])
	for i := 0; i < n; i++ {
		var words [][]byte
		for _, col := range cols {
			words = append(words, []byte(col[i]))
		}
		et.Tuples = append(et.Tuples, ph.EncryptedTuple{ID: []byte{byte(i)}, Words: words})
	}
	return et
}

func q(token string) *ph.EncryptedQuery {
	return &ph.EncryptedQuery{SchemeID: "plan-test", Token: []byte(token)}
}

// evens/odds style fixture: column 0 splits the table in half, column 1
// hits exactly one tuple.
func fixture(n int) *ph.EncryptedTable {
	broad := make([]string, n)
	narrow := make([]string, n)
	for i := range broad {
		if i%2 == 0 {
			broad[i] = "even"
		} else {
			broad[i] = "odd"
		}
		narrow[i] = "x"
	}
	narrow[n-2] = "rare"
	return testTable(broad, narrow)
}

func naiveConj(et *ph.EncryptedTable, qs []*ph.EncryptedQuery) []int {
	var out []int
	for i := range et.Tuples {
		all := true
		for _, qq := range qs {
			if !tupleMatches(et.Tuples[i], qq.Token) {
				all = false
				break
			}
		}
		if all {
			out = append(out, i)
		}
	}
	if out == nil {
		out = []int{}
	}
	return out
}

func runPlan(t *testing.T, et *ph.EncryptedTable, conjs []Conjunct) ([]int, *Plan) {
	t.Helper()
	plan, err := Build("t", len(et.Tuples), conjs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(len(et.Tuples), testScan(et))
	if err != nil {
		t.Fatal(err)
	}
	return got, plan
}

func TestBuildOrdersBySelectivity(t *testing.T) {
	conjs := []Conjunct{
		{Index: 0, Q: q("a"), Est: 0.5},
		{Index: 1, Q: q("b"), Est: 0.01},
		{Index: 2, Q: q("c"), Est: 0.25},
	}
	plan, err := Build("t", 100, conjs)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, cj := range plan.Conjuncts {
		order = append(order, cj.Index)
	}
	if want := []int{1, 2, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestBuildPutsCachedFirst(t *testing.T) {
	conjs := []Conjunct{
		{Index: 0, Q: q("a"), Est: 0.001},
		{Index: 1, Q: q("b"), Est: 0.9, Cached: cache.Hit, Entry: cache.Entry{Positions: []int{1, 2, 3}}},
		{Index: 2, Q: q("c"), Est: 0.9, Cached: cache.Hit, Entry: cache.Entry{Positions: []int{1}}},
	}
	plan, err := Build("t", 100, conjs)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, cj := range plan.Conjuncts {
		order = append(order, cj.Index)
	}
	// Cached sets lead (smallest first) even against a very selective
	// uncached conjunct: they cost nothing to intersect.
	if want := []int{2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestBuildPrefersCheapPrefixDriver: a cached prefix whose completion
// costs only a small tail scan beats a marginally more selective
// uncached conjunct that would have to scan the whole table.
func TestBuildPrefersCheapPrefixDriver(t *testing.T) {
	conjs := []Conjunct{
		{Index: 0, Q: q("a"), Est: 0.009}, // uncached: driver cost 1000 + 9
		{Index: 1, Q: q("b"), Est: 0.010, Cached: cache.Delta, Entry: cache.Entry{Scanned: 990}}, // tail cost 10 + 10
	}
	plan, err := Build("t", 1000, conjs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Conjuncts[0].Index != 1 {
		t.Fatalf("driver is conjunct %d, want the cheap cached prefix 1", plan.Conjuncts[0].Index)
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build("t", 0, nil); err == nil {
		t.Fatal("empty conjunction must be rejected")
	}
}

func TestRunMatchesNaiveIntersection(t *testing.T) {
	et := fixture(64)
	cases := [][]*ph.EncryptedQuery{
		{q("even"), q("rare")},
		{q("odd"), q("rare")}, // empty intersection (rare sits on an even tuple)
		{q("even"), q("odd")}, // disjoint broad conjuncts
		{q("even"), q("even")},
		{q("even"), q("x"), q("rare")},
	}
	for ci, qs := range cases {
		conjs := make([]Conjunct, len(qs))
		for i, qq := range qs {
			conjs[i] = Conjunct{Index: i, Q: qq, Est: 0.5}
		}
		got, _ := runPlan(t, et, conjs)
		if want := naiveConj(et, qs); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Run = %v, want %v", ci, got, want)
		}
	}
}

// TestRunScansOnceAndNarrows asserts the cost shape the planner exists
// for: one full-width driver pass (the most selective estimate) and
// only narrowed passes for the rest.
func TestRunScansOnceAndNarrows(t *testing.T) {
	et := fixture(1000)
	conjs := []Conjunct{
		{Index: 0, Q: q("even"), Est: 0.5},
		{Index: 1, Q: q("rare"), Est: 0.001},
	}
	fullScans.Store(0)
	testedCount.Store(0)
	got, plan := runPlan(t, et, conjs)
	if want := naiveConj(et, []*ph.EncryptedQuery{q("even"), q("rare")}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Run = %v, want %v", got, want)
	}
	// The driver is the one whole-table pass.
	if n := fullScans.Load(); n != 1 {
		t.Fatalf("plan ran %d whole-table passes, want 1", n)
	}
	// Driver pass tests n positions; the broad conjunct is then tested
	// only at the single survivor: n + 1 total.
	if n := testedCount.Load(); n != int64(len(et.Tuples)+1) {
		t.Fatalf("plan tested %d positions, want %d", n, len(et.Tuples)+1)
	}
	if plan.Conjuncts[0].Source != SourceScan || plan.Conjuncts[1].Source != SourceNarrow {
		t.Fatalf("sources = %v, %v; want full-scan then narrow", plan.Conjuncts[0].Source, plan.Conjuncts[1].Source)
	}
	if plan.Conjuncts[0].FullPositions == nil {
		t.Fatal("driver must surface its full position set for cache write-back")
	}
	if plan.Conjuncts[1].FullPositions != nil {
		t.Fatal("narrowed conjunct must not claim a full position set")
	}
}

// TestRunUsesCachedPositions: with every conjunct cached, the plan runs
// zero cryptography.
func TestRunUsesCachedPositions(t *testing.T) {
	et := fixture(100)
	evens := naiveConj(et, []*ph.EncryptedQuery{q("even")})
	rare := naiveConj(et, []*ph.EncryptedQuery{q("rare")})
	conjs := []Conjunct{
		{Index: 0, Q: q("even"), Cached: cache.Hit, Entry: cache.Entry{Positions: evens, Scanned: 100}, Est: 0.5, EstKnown: true},
		{Index: 1, Q: q("rare"), Cached: cache.Hit, Entry: cache.Entry{Positions: rare, Scanned: 100}, Est: 0.01, EstKnown: true},
	}
	fullScans.Store(0)
	testedCount.Store(0)
	got, plan := runPlan(t, et, conjs)
	if want := naiveConj(et, []*ph.EncryptedQuery{q("even"), q("rare")}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Run = %v, want %v", got, want)
	}
	if fullScans.Load() != 0 || testedCount.Load() != 0 {
		t.Fatalf("fully cached plan ran %d scans / %d tests, want none",
			fullScans.Load(), testedCount.Load())
	}
	for _, cj := range plan.Conjuncts {
		if cj.Source != SourceHit {
			t.Fatalf("source = %v, want cache-hit", cj.Source)
		}
	}
}

// TestRunCachedPrefixDriver: a prefix entry as driver scans only the
// appended tail and surfaces the completed full set.
func TestRunCachedPrefixDriver(t *testing.T) {
	et := fixture(100)
	rareAll := naiveConj(et, []*ph.EncryptedQuery{q("rare")})
	var rarePrefix []int
	for _, p := range rareAll {
		if p < 90 {
			rarePrefix = append(rarePrefix, p)
		}
	}
	conjs := []Conjunct{
		{Index: 0, Q: q("rare"), Cached: cache.Delta, Entry: cache.Entry{Positions: rarePrefix, Scanned: 90}, Est: 0.01, EstKnown: true},
		{Index: 1, Q: q("even"), Est: 0.5},
	}
	fullScans.Store(0)
	testedCount.Store(0)
	got, plan := runPlan(t, et, conjs)
	if want := naiveConj(et, []*ph.EncryptedQuery{q("rare"), q("even")}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Run = %v, want %v", got, want)
	}
	// The driver scans the 10-tuple tail and the second conjunct tests
	// its one survivor: 11 positions, no pass over the whole table.
	if n := testedCount.Load(); n != 11 {
		t.Fatalf("prefix driver plan tested %d positions, want 11: it must not full-scan", n)
	}
	driver := plan.Conjuncts[0]
	if driver.Source != SourceDelta || driver.Tested != 10 {
		t.Fatalf("driver: source %v tested %d, want cache-delta testing 10", driver.Source, driver.Tested)
	}
	if !reflect.DeepEqual(driver.FullPositions, rareAll) {
		t.Fatalf("driver completed set = %v, want %v", driver.FullPositions, rareAll)
	}
}

// TestRunDeltaNarrowReportsTailHits: a non-driver conjunct with a
// cached prefix tests only tail survivors, and NarrowHits reports the
// hits among exactly those — the conditional-selectivity numerator the
// storage layer feeds back to the memo.
func TestRunDeltaNarrowReportsTailHits(t *testing.T) {
	et := fixture(100) // "rare" sits at position 98, an even tuple
	evensAll := naiveConj(et, []*ph.EncryptedQuery{q("even")})
	var evensPrefix []int
	for _, p := range evensAll {
		if p < 90 {
			evensPrefix = append(evensPrefix, p)
		}
	}
	// Est 0.95 keeps the prefix conjunct's cost (10 tail + 95 survivors)
	// above the rare driver's (100 + 0.1), so it narrows second.
	conjs := []Conjunct{
		{Index: 0, Q: q("rare"), Est: 0.001},
		{Index: 1, Q: q("even"), Est: 0.95, Cached: cache.Delta, Entry: cache.Entry{Positions: evensPrefix, Scanned: 90}},
	}
	got, plan := runPlan(t, et, conjs)
	if want := []int{98}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Run = %v, want %v", got, want)
	}
	cj := plan.Conjuncts[1]
	if cj.Source != SourceDelta {
		t.Fatalf("prefix non-driver source = %v, want cache-delta", cj.Source)
	}
	// The sole survivor (98) lies in the tail, so exactly one position
	// was tested and it hit.
	if cj.Tested != 1 || cj.NarrowHits != 1 || cj.Hits != 1 {
		t.Fatalf("tested %d, narrow hits %d, hits %d; want 1, 1, 1", cj.Tested, cj.NarrowHits, cj.Hits)
	}
}

// TestRunSkipsAfterEmpty: once the survivor set is empty the remaining
// conjuncts are never evaluated.
func TestRunSkipsAfterEmpty(t *testing.T) {
	et := fixture(50)
	conjs := []Conjunct{
		{Index: 0, Q: q("nothing-matches"), Est: 0.001},
		{Index: 1, Q: q("even"), Est: 0.5},
	}
	fullScans.Store(0)
	testedCount.Store(0)
	got, plan := runPlan(t, et, conjs)
	if len(got) != 0 {
		t.Fatalf("Run = %v, want empty", got)
	}
	if plan.Conjuncts[1].Source != SourceSkipped {
		t.Fatalf("second conjunct source = %v, want skipped", plan.Conjuncts[1].Source)
	}
	if n := testedCount.Load(); n != int64(len(et.Tuples)) {
		t.Fatalf("tested %d positions, want %d (driver only)", n, len(et.Tuples))
	}
}

func TestRunRejectsStaleSnapshot(t *testing.T) {
	et := fixture(10)
	plan, err := Build("t", 12, []Conjunct{{Index: 0, Q: q("even")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(len(et.Tuples), testScan(et)); err == nil {
		t.Fatal("plan for a different tuple count must refuse to run")
	}
}

func TestAnnotatePredictsSources(t *testing.T) {
	conjs := []Conjunct{
		{Index: 0, Q: q("a"), Est: 0.9, Cached: cache.Hit},
		{Index: 1, Q: q("b"), Est: 0.1},
		{Index: 2, Q: q("c"), Est: 0.5, Cached: cache.Delta},
	}
	plan, err := Build("t", 100, conjs)
	if err != nil {
		t.Fatal(err)
	}
	plan.Annotate()
	want := map[int]Source{0: SourceHit, 1: SourceNarrow, 2: SourceDelta}
	for _, cj := range plan.Conjuncts {
		if cj.Source != want[cj.Index] {
			t.Fatalf("conjunct %d annotated %v, want %v", cj.Index, cj.Source, want[cj.Index])
		}
	}
	// The cached conjunct leads, so the uncached selective one narrows.
	if plan.Conjuncts[0].Index != 0 {
		t.Fatalf("cached conjunct must lead, got index %d", plan.Conjuncts[0].Index)
	}
}
