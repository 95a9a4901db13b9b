package storage

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/workload"
)

// swpFixture builds a core (swp-ph) scheme with an encrypted employees
// table and a hot-word query, the realistic workload for the result
// cache: deterministic trapdoors over a real scheme, verifiable against
// core.EvaluateSerial ground truth.
type swpFixture struct {
	scheme *core.PH
	ct     *ph.EncryptedTable
	q      *ph.EncryptedQuery
}

func newSWPFixture(tb testing.TB, tuples int, seed int64) *swpFixture {
	tb.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		tb.Fatal(err)
	}
	table, err := workload.Employees(tuples, seed)
	if err != nil {
		tb.Fatal(err)
	}
	scheme, err := core.New(key, table.Schema(), core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ct, err := scheme.EncryptTable(table)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := scheme.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err != nil {
		tb.Fatal(err)
	}
	return &swpFixture{scheme: scheme, ct: ct, q: q}
}

// query builds a trapdoor for an arbitrary dept value. The benchmarks use
// a rare value so the numbers isolate scan cost from the unavoidable,
// result-size-proportional cost of materialising matching tuples.
func (f *swpFixture) query(tb testing.TB, dept string) *ph.EncryptedQuery {
	tb.Helper()
	q, err := f.scheme.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String(dept)})
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// encryptBatch encrypts n fresh tuples under the fixture's scheme, with
// dept drawn from the workload distribution (seed controls whether any
// match "HR").
func (f *swpFixture) encryptBatch(tb testing.TB, n int, seed int64) []ph.EncryptedTuple {
	tb.Helper()
	t, err := workload.Employees(n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	ct, err := f.scheme.EncryptTable(t)
	if err != nil {
		tb.Fatal(err)
	}
	return ct.Tuples
}

// resultsEqual reports whether two results are byte-identical.
func resultsEqual(a, b *ph.Result) bool {
	if len(a.Positions) != len(b.Positions) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			return false
		}
	}
	for i := range a.Tuples {
		at, bt := a.Tuples[i], b.Tuples[i]
		if !bytes.Equal(at.ID, bt.ID) || !bytes.Equal(at.Blob, bt.Blob) || len(at.Words) != len(bt.Words) {
			return false
		}
		for j := range at.Words {
			if !bytes.Equal(at.Words[j], bt.Words[j]) {
				return false
			}
		}
	}
	return true
}

// assertMatchesSerial queries the store and checks the result is
// byte-identical to core.EvaluateSerial run on a fresh snapshot of the
// same table.
func assertMatchesSerial(t *testing.T, s *Store, name string, q *ph.EncryptedQuery, context string) {
	t.Helper()
	got, err := s.Query(name, q)
	if err != nil {
		t.Fatalf("%s: query: %v", context, err)
	}
	snap, err := s.Get(name)
	if err != nil {
		t.Fatalf("%s: get: %v", context, err)
	}
	want, err := core.EvaluateSerial(snap, q)
	if err != nil {
		t.Fatalf("%s: serial ground truth: %v", context, err)
	}
	if !resultsEqual(got, want) {
		t.Fatalf("%s: cached result diverges from EvaluateSerial: got %d hits %v, want %d hits %v",
			context, len(got.Positions), got.Positions, len(want.Positions), want.Positions)
	}
}

// TestCacheConcurrentMutations is the -race satellite: queriers hammer a
// cached hot-word query while one writer appends matching tuples, one
// compacts, and one churns an unrelated table with Put/Drop cycles.
// During the run each result must be internally consistent (ascending
// positions, hit count within the append envelope); after the dust
// settles every query must be byte-identical to EvaluateSerial ground
// truth. Cache reuse happens by construction, not by timing: the appender
// starts only once a query has cached the hot word, and querier 0's last
// round waits for the last append, so the first query after that append
// is a delta and the check after the run a hit.
func TestCacheConcurrentMutations(t *testing.T) {
	f := newSWPFixture(t, 120, 3)
	base, err := core.EvaluateSerial(f.ct, f.q)
	if err != nil {
		t.Fatal(err)
	}
	minHits := len(base.Positions)
	s, err := Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("emp", f.ct); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("other", newSWPFixture(t, 40, 4).ct); err != nil {
		t.Fatal(err)
	}

	const (
		appends  = 12
		perBatch = 10
		queriers = 4
		rounds   = 40
	)
	batches := make([][]ph.EncryptedTuple, appends)
	for i := range batches {
		batches[i] = f.encryptBatch(t, perBatch, int64(20+i))
	}
	cached, appended := make(chan struct{}), make(chan struct{})
	var cachedOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // appender on the hot table
		defer wg.Done()
		defer close(appended)
		<-cached
		for _, b := range batches {
			if err := s.Append("emp", b); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // exporter: Get's deep copy now runs outside the table lock
		defer wg.Done()
		for i := 0; i < 20; i++ {
			snap, err := s.Get("emp")
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if len(snap.Tuples) < 120 {
				t.Errorf("get: snapshot of %d tuples, want >= 120", len(snap.Tuples))
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // churner on an unrelated table
		defer wg.Done()
		churn := newSWPFixture(t, 16, 5)
		for i := 0; i < 15; i++ {
			if err := s.Put("churn", churn.ct); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
			if err := s.Drop("churn"); err != nil {
				t.Errorf("churn drop: %v", err)
				return
			}
		}
	}()
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer cachedOnce.Do(func() { close(cached) })
			last := minHits
			for i := 0; i < rounds; i++ {
				if g == 0 && i == rounds-1 {
					<-appended
				}
				res, err := s.Query("emp", f.q)
				if err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
				cachedOnce.Do(func() { close(cached) })
				for j := 1; j < len(res.Positions); j++ {
					if res.Positions[j] <= res.Positions[j-1] {
						t.Errorf("querier %d: positions not ascending: %v", g, res.Positions)
						return
					}
				}
				n := len(res.Positions)
				if n < last || n > minHits+appends*perBatch {
					t.Errorf("querier %d: hit count %d outside [%d, %d]", g, n, last, minHits+appends*perBatch)
					return
				}
				last = n
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	assertMatchesSerial(t, s, "emp", f.q, "after concurrent churn")
	assertMatchesSerial(t, s, "other", f.q, "unrelated table")
	st := s.CacheStats()
	if st.Hits == 0 || st.Deltas == 0 {
		t.Errorf("concurrency run exercised no cache reuse: %+v", st)
	}
}

// TestReplacedTableNeverServesItsCache: a cold read held inside its scan
// while its table is replaced writes its answer back under the old
// entry's key; the replacement, which has the same tuple count and other
// contents, must answer with a fresh scan of its own tuples — a miss,
// never a hit on the straggler. Once through Put, once through
// InstallSnapshot.
func TestReplacedTableNeverServesItsCache(t *testing.T) {
	f := newSWPFixture(t, 64, 1)
	s := NewMemory()
	if err := s.Put("emp", f.ct); err != nil {
		t.Fatal(err)
	}
	holdScans(t)
	// other is a table of f.ct's size under f's scheme, with other contents.
	other := func(seed int64) *ph.EncryptedTable {
		return &ph.EncryptedTable{SchemeID: f.ct.SchemeID, Meta: f.ct.Meta, Tuples: f.encryptBatch(t, len(f.ct.Tuples), seed)}
	}
	replaceDuringRead := func(how string, q *ph.EncryptedQuery, replace func() error) {
		t.Helper()
		h := &struct{ entered, release chan struct{} }{make(chan struct{}), make(chan struct{})}
		hold = h
		read := make(chan error, 1)
		go func() { _, err := s.Query("emp", q); read <- err }()
		select {
		case <-h.entered: // the cold read holds the old entry's read lock
		case err := <-read:
			t.Fatalf("%s: the read never scanned (%v): its token was cached", how, err)
		}
		hold = nil
		replaced := make(chan error, 1)
		go func() { replaced <- replace() }()
		for s.mu.TryRLock() { // wait until the replacement holds the store lock
			s.mu.RUnlock()
			time.Sleep(time.Millisecond)
		}
		close(h.release)
		if err := <-read; err != nil {
			t.Fatalf("%s: held read: %v", how, err)
		}
		if err := <-replaced; err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		before := s.CacheStats()
		assertMatchesSerial(t, s, "emp", q, how)
		if after := s.CacheStats(); after.Hits != before.Hits || after.Misses != before.Misses+1 {
			t.Fatalf("%s: cache stats went %+v -> %+v, want one miss and no hit", how, before, after)
		}
	}

	replaceDuringRead("Put", f.q, func() error { return s.Put("emp", other(2)) })

	src := NewMemory()
	if err := src.Put("emp", other(3)); err != nil {
		t.Fatal(err)
	}
	snap, _, err := src.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	replaceDuringRead("InstallSnapshot", f.query(t, "FIN"), func() error { _, err := s.InstallSnapshot(snap); return err })
}

// disableCache removes s's result cache, so every read takes the
// uncached path. The cache is fixed once reads run concurrently, so
// callers do this while no read is in flight.
func disableCache(s *Store) { s.cache = nil }

// TestCacheDisabled pins the uncached path: with the cache removed the
// store still answers correctly and reports zero stats.
func TestCacheDisabled(t *testing.T) {
	f := newSWPFixture(t, 64, 6)
	s := NewMemory()
	disableCache(s)
	if err := s.Put("emp", f.ct); err != nil {
		t.Fatal(err)
	}
	assertMatchesSerial(t, s, "emp", f.q, "uncached")
	assertMatchesSerial(t, s, "emp", f.q, "uncached repeat")
	if st := s.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache reported activity: %+v", st)
	}
}

// BenchmarkQueryCached measures the steady-state hot-word query: every
// iteration after the first is answered from the result cache without
// scanning the table.
func BenchmarkQueryCached(b *testing.B) {
	f := newSWPFixture(b, 4096, 1)
	q := f.query(b, "FIN")
	s := NewMemory()
	if err := s.Put("emp", f.ct); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Query("emp", q); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("emp", q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryUncached is the before-side of BenchmarkQueryCached: the
// same repeated hot-word query with the result cache disabled, i.e. the
// PR 1 full-scan-per-query path.
func BenchmarkQueryUncached(b *testing.B) {
	f := newSWPFixture(b, 4096, 1)
	q := f.query(b, "FIN")
	s := NewMemory()
	disableCache(s)
	if err := s.Put("emp", f.ct); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("emp", q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryDelta measures the append-then-requery path: each
// iteration appends one tuple and re-runs the hot query, which re-scans
// only the appended tail instead of the whole table.
func BenchmarkQueryDelta(b *testing.B) {
	f := newSWPFixture(b, 4096, 1)
	q := f.query(b, "FIN")
	s := NewMemory()
	if err := s.Put("emp", f.ct); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Query("emp", q); err != nil { // warm
		b.Fatal(err)
	}
	one := f.encryptBatch(b, 1, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append("emp", one); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Query("emp", q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.CacheStats(); uint64(b.N) > st.Deltas {
		b.Fatalf("delta path not exercised: %d iterations, %d delta scans", b.N, st.Deltas)
	}
}
