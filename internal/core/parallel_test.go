package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/swp"
	"repro/internal/workload"
)

// bigFixture encrypts one table large enough to engage the parallel path,
// shared across the tests and benchmarks of the package; absent selects
// no tuple of it.
type bigFixture struct {
	p      *PH
	ct     *ph.EncryptedTable
	t      *relation.Table
	absent relation.Eq
}

// fixtureOnce builds a bigFixture once per test binary.
type fixtureOnce struct {
	once sync.Once
	fix  *bigFixture
	err  error
}

var bigFix, intsFix fixtureOnce

// get encrypts the table gen makes on first use.
func (f *fixtureOnce) get(tb testing.TB, n int, absent relation.Eq, gen func() (*relation.Table, error)) *bigFixture {
	tb.Helper()
	f.once.Do(func() {
		var key crypto.Key
		for i := range key {
			key[i] = byte(i)
		}
		t, err := gen()
		if err != nil {
			f.err = err
			return
		}
		p, err := New(key, t.Schema(), Options{})
		if err != nil {
			f.err = err
			return
		}
		ct, err := p.EncryptTable(t)
		if err != nil {
			f.err = err
			return
		}
		f.fix = &bigFixture{p: p, ct: ct, t: t, absent: absent}
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	if len(f.fix.ct.Tuples) < n {
		tb.Fatalf("fixture has %d tuples, want ≥ %d", len(f.fix.ct.Tuples), n)
	}
	return f.fix
}

// bigTable is the emp table: 11-byte words, one stream block each.
func bigTable(tb testing.TB, n int) *bigFixture {
	return bigFix.get(tb, n, relation.Eq{Column: "name", Value: relation.String("zz-absent")},
		func() (*relation.Table, error) { return workload.Employees(n, 7) })
}

// intsTable is one int column 19 digits wide: its 21-byte words take ψ's
// kernel through two stream blocks (n − m = 19 at m = 2). Its values
// repeat, about ten tuples each, so an answer has more than one hit.
func intsTable(tb testing.TB, n int) *bigFixture {
	fix := intsFix.get(tb, n, relation.Eq{Column: "k", Value: relation.Int(-1)},
		func() (*relation.Table, error) { return workload.UniformInts(n, int64(n/10), 7) })
	if wl := len(fix.ct.Tuples[0].Words[0]); wl != 21 {
		tb.Fatalf("int fixture has %d-byte words, want 21", wl)
	}
	return fix
}

// benchTuples exceeds parallelThreshold, so Evaluate shards it — the
// ≥10k-tuple table the acceptance criteria name.
const benchTuples = 10000

func fixtureQueries(tb testing.TB, fix *bigFixture) []relation.Eq {
	tb.Helper()
	qs := workload.QueryMix(fix.t, 6, 11)
	// Add an absent value: the all-miss scan is the worst case.
	return append(qs, fix.absent)
}

// TestEvaluateParallelMatchesSerial runs on the emp table and on the int
// table, whose words take more than one stream block: the sharded scan,
// the serial one and, once decrypted, σ on the plaintext agree.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	for _, fix := range []*bigFixture{bigTable(t, benchTuples), intsTable(t, benchTuples)} {
		for _, q := range fixtureQueries(t, fix) {
			eq, err := fix.p.EncryptQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := EvaluateSerial(fix.ct, eq)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Evaluate(fix.ct, eq)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Positions) != len(parallel.Positions) {
				t.Fatalf("%s: serial %d hits, parallel %d", q, len(serial.Positions), len(parallel.Positions))
			}
			for i := range serial.Positions {
				if serial.Positions[i] != parallel.Positions[i] {
					t.Fatalf("%s: position %d: serial %d, parallel %d (order must be identical)",
						q, i, serial.Positions[i], parallel.Positions[i])
				}
			}
			// Sanity: the merged order is the table order.
			for i := 1; i < len(parallel.Positions); i++ {
				if parallel.Positions[i] <= parallel.Positions[i-1] {
					t.Fatalf("%s: positions not strictly increasing: %v", q, parallel.Positions)
				}
			}
			got, err := fix.p.DecryptResult(q, parallel)
			if err != nil {
				t.Fatal(err)
			}
			want, err := relation.Select(fix.t, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: the scan's answer decrypts to %d tuples, σ on the plaintext has %d", q, got.Len(), want.Len())
			}
		}
	}
}

// TestShardScanCoversEveryIndexOnce drives the scan driver with every
// worker count a budget can grant — up to more workers than some inputs
// have chunks for — and checks the chunks tile [0, n) exactly, in order,
// each on its own Matcher, with one allotment drawn and returned.
func TestShardScanCoversEveryIndexOnce(t *testing.T) {
	const procs = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	base := swp.NewMatcher(swp.Params{WordLen: 11, ChecksumLen: 2}, swp.Trapdoor{})
	for _, n := range []int{0, 1, parallelThreshold - 1, parallelThreshold, parallelThreshold + 76, 2*parallelThreshold + 3} {
		for _, capacity := range []int{1, 2, 3, procs} {
			budget := sched.NewBudget(capacity)
			old := sched.SetProcess(budget)
			var mu sync.Mutex
			matchers := map[*swp.Matcher]bool{}
			got := shardScan(n, base, func(lo, hi int, m *swp.Matcher) []int {
				mu.Lock()
				defer mu.Unlock()
				if matchers[m] {
					t.Errorf("n=%d capacity=%d: two chunks share a Matcher", n, capacity)
				}
				matchers[m] = true
				idx := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					idx = append(idx, i)
				}
				return idx
			})
			sched.SetProcess(old)
			if len(got) != n {
				t.Fatalf("n=%d capacity=%d: %d indices scanned", n, capacity, len(got))
			}
			for i, p := range got {
				if p != i {
					t.Fatalf("n=%d capacity=%d: merged index %d is %d", n, capacity, i, p)
				}
			}
			want := sched.Stats{}
			if n >= parallelThreshold {
				want = sched.Stats{Acquires: 1, Extras: uint64(capacity - 1), Releases: 1}
			}
			if st := budget.Stats(); st != want || budget.Idle() != capacity {
				t.Fatalf("n=%d capacity=%d: budget stats %+v idle %d, want %+v and everything returned", n, capacity, st, budget.Idle(), want)
			}
		}
	}
}

func TestEvaluateConcurrentQueries(t *testing.T) {
	// The parallel evaluator itself must be reentrant: many queries against
	// the same encrypted table at once (the storage layer's new behaviour).
	fix := bigTable(t, benchTuples)
	queries := fixtureQueries(t, fix)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			eq, err := fix.p.EncryptQuery(q)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := EvaluateSerial(fix.ct, eq)
			if err != nil {
				t.Error(err)
				return
			}
			for rep := 0; rep < 3; rep++ {
				got, err := Evaluate(fix.ct, eq)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Positions) != len(want.Positions) {
					t.Errorf("%s: got %d hits, want %d", q, len(got.Positions), len(want.Positions))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// benchEvaluate times one evaluator over the shared 10k-tuple fixture. The
// query is a selective name lookup so the measurement is the table scan,
// not result-tuple copying.
func benchEvaluate(b *testing.B, eval func(*ph.EncryptedTable, *ph.EncryptedQuery) (*ph.Result, error)) {
	fix := bigTable(b, benchTuples)
	name := fix.t.Tuple(benchTuples / 2)[0]
	eq, err := fix.p.EncryptQuery(relation.Eq{Column: "name", Value: name})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval(fix.ct, eq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateParallel is the sharded worker-pool scan; compare
// against BenchmarkEvaluateSerial for the share parallelism contributes.
func BenchmarkEvaluateParallel(b *testing.B) { benchEvaluate(b, Evaluate) }

// BenchmarkEvaluateSerial is the single-threaded scan on the Matcher
// engine — the reference the equivalence tests compare against.
func BenchmarkEvaluateSerial(b *testing.B) { benchEvaluate(b, EvaluateSerial) }
