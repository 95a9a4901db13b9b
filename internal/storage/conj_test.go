package storage

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/authindex"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// conjFixture uploads an encrypted employee table and returns the store,
// the scheme and token factories for its columns.
func conjFixture(t *testing.T, tuples int) (*Store, ph.Scheme, func(col string, v relation.Value) *ph.EncryptedQuery) {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	table, err := workload.Employees(tuples, 5)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.New(key, table.Schema(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := scheme.EncryptTable(table)
	if err != nil {
		t.Fatal(err)
	}
	s := NewMemory()
	if err := s.Put("emp", ct); err != nil {
		t.Fatal(err)
	}
	token := func(col string, v relation.Value) *ph.EncryptedQuery {
		q, err := scheme.EncryptQuery(relation.Eq{Column: col, Value: v})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return s, scheme, token
}

// naiveConjPositions intersects per-query evaluator results — the
// reference the planner must reproduce byte for byte.
func naiveConjPositions(t *testing.T, s *Store, qs []*ph.EncryptedQuery) []int {
	t.Helper()
	et, err := s.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for i, q := range qs {
		res, err := ph.Apply(et, q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			out = res.Positions
		} else {
			out = ph.IntersectPositions(out, res.Positions)
		}
	}
	if out == nil {
		out = []int{}
	}
	return out
}

func TestQueryConjMatchesIntersection(t *testing.T) {
	s, _, token := conjFixture(t, 300)
	cases := [][]*ph.EncryptedQuery{
		{token("dept", relation.String("HR")), token("salary", relation.Int(1234))},
		{token("dept", relation.String("HR")), token("dept", relation.String("IT"))},
		{token("dept", relation.String("HR")), token("dept", relation.String("HR"))},
		{token("dept", relation.String("IT")), token("name", relation.String("nobody")), token("salary", relation.Int(1))},
		{token("dept", relation.String("FIN"))},
	}
	for ci, qs := range cases {
		want := naiveConjPositions(t, s, qs)
		res, info, err := s.QueryConj("emp", qs)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !reflect.DeepEqual(res.Positions, want) {
			t.Fatalf("case %d: positions %v, want %v", ci, res.Positions, want)
		}
		if len(res.Tuples) != len(want) {
			t.Fatalf("case %d: %d tuples for %d positions", ci, len(res.Tuples), len(want))
		}
		if info == nil || len(info.Steps) != len(qs) {
			t.Fatalf("case %d: plan info %+v, want %d steps", ci, info, len(qs))
		}
	}
}

// TestQueryConjCachesConjuncts: the driver's full position set lands in
// the result cache, so a repeated conjunct is a hit even in a brand-new
// combination.
func TestQueryConjCachesConjuncts(t *testing.T) {
	s, _, token := conjFixture(t, 200)
	hr := token("dept", relation.String("HR"))
	it := token("dept", relation.String("IT"))
	if _, _, err := s.QueryConj("emp", []*ph.EncryptedQuery{hr, it}); err != nil {
		t.Fatal(err)
	}
	// The driver (whichever the planner picked) was cached; in a new
	// combination it must be served from the cache.
	before := s.CacheStats()
	_, info, err := s.QueryConj("emp", []*ph.EncryptedQuery{hr, token("salary", relation.Int(99))})
	if err != nil {
		t.Fatal(err)
	}
	after := s.CacheStats()
	hadHit := false
	for _, st := range info.Steps {
		if st.Source == query.SourceHit {
			hadHit = true
		}
	}
	if !hadHit && after.Hits == before.Hits {
		t.Fatalf("repeated conjunct not served from cache; plan %+v, stats %+v -> %+v", info, before, after)
	}
}

// TestQueryConjLearnsSelectivity: after the sketch observes both
// conjuncts, a fresh store-side combination orders the selective one
// first.
func TestQueryConjLearnsSelectivity(t *testing.T) {
	s, _, token := conjFixture(t, 400)
	broad := token("dept", relation.String("HR")) // Zipf head: broad
	rare := token("salary", relation.Int(1234))   // near-unique
	// Observe both marginals through single queries (cache disabled so
	// the second round cannot be served without planning).
	if _, err := s.Query("emp", broad); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("emp", rare); err != nil {
		t.Fatal(err)
	}
	disableCache(s)
	_, info, err := s.QueryConj("emp", []*ph.EncryptedQuery{broad, rare})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Steps) != 2 {
		t.Fatalf("want 2 steps, got %+v", info)
	}
	first := info.Steps[0]
	if first.Index != 1 {
		t.Fatalf("planner drove with conjunct %d (est %.4f), want the rare conjunct 1; plan %+v",
			first.Index, first.Est, info)
	}
	if !first.EstKnown {
		t.Fatal("driver estimate should be marked observed after prior scans")
	}
}

// TestQueryConjDeltaAfterAppend: a conjunct cached before an append is
// completed by scanning only the tail.
func TestQueryConjDeltaAfterAppend(t *testing.T) {
	s, scheme, token := conjFixture(t, 128)
	hr := token("dept", relation.String("HR"))
	it := token("dept", relation.String("IT"))
	// Cache both conjuncts' full position sets via single queries.
	if _, err := s.Query("emp", hr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("emp", it); err != nil {
		t.Fatal(err)
	}
	// Append fresh tuples; cached entries become prefixes.
	extra, err := workload.Employees(32, 77)
	if err != nil {
		t.Fatal(err)
	}
	ect, err := scheme.EncryptTable(extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("emp", ect.Tuples); err != nil {
		t.Fatal(err)
	}
	want := naiveConjPositions(t, s, []*ph.EncryptedQuery{hr, it})
	res, info, err := s.QueryConj("emp", []*ph.EncryptedQuery{hr, it})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Positions, want) {
		t.Fatalf("positions after append %v, want %v", res.Positions, want)
	}
	for _, st := range info.Steps {
		if st.Source == query.SourceScan {
			t.Fatalf("conjunct %d full-scanned after append despite cached prefix; plan %+v", st.Index, info)
		}
	}
}

// TestVerifiedConjSnapshotConsistent: the verified variant's
// proofs always verify against the snapshot whose root they travel
// with, and the result equals the plain conjunctive result.
func TestVerifiedConjSnapshotConsistent(t *testing.T) {
	s, _, token := conjFixture(t, 200)
	// A conjunction that matches — HR and the salary of one of its own
	// employees — so there are tuples for the proof to authenticate.
	plain, err := workload.Employees(200, 5) // conjFixture's table
	if err != nil {
		t.Fatal(err)
	}
	hr, err := relation.Select(plain, relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err != nil || hr.Len() == 0 {
		t.Fatalf("fixture has no HR employee (%v)", err)
	}
	qs := []*ph.EncryptedQuery{token("dept", relation.String("HR")), token("salary", hr.Tuples()[0][2])}
	want := naiveConjPositions(t, s, qs)
	resp, _, err := s.Read("emp", qs, wire.ReadFlagVerified)
	if err != nil {
		t.Fatal(err)
	}
	vr := resp.Verified
	if !reflect.DeepEqual(vr.Result.Positions, want) {
		t.Fatalf("verified positions %v, want %v", vr.Result.Positions, want)
	}
	if len(vr.Result.Tuples) == 0 {
		t.Fatal("the conjunction matched nothing; nothing to verify")
	}
	if err := verifyAt(s, "emp", vr); err != nil {
		t.Fatalf("answer of %d tuples rejected: %v", len(vr.Result.Tuples), err)
	}
	et, err := s.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if want := authindex.Build(et).Root(); !bytes.Equal(vr.Root, want) {
		t.Fatal("verified root differs from a rebuild of the served table")
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	s, _, token := conjFixture(t, 256)
	qs := []*ph.EncryptedQuery{token("dept", relation.String("HR")), token("salary", relation.Int(1234))}
	resp, _, err := s.Read("emp", qs, wire.ReadFlagExplain)
	if err != nil {
		t.Fatal(err)
	}
	info := resp.Plan
	if resp.Result != nil || resp.Verified != nil || len(info.Steps) != 2 || info.Tuples != 256 {
		t.Fatalf("explain info %+v", info)
	}
	for _, st := range info.Steps {
		if st.Tested != 0 || st.Hits != 0 {
			t.Fatalf("explain must not execute; step %+v reports work", st)
		}
	}
	// Nothing was scanned, so nothing entered the result cache.
	if n := 0; s.CacheStats().Hits != uint64(n) {
		t.Fatalf("explain produced cache hits: %+v", s.CacheStats())
	}
	// And a subsequent real run is still a miss-driven execution that
	// matches the reference.
	want := naiveConjPositions(t, s, qs)
	res, _, err := s.QueryConj("emp", qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Positions, want) {
		t.Fatalf("positions after explain %v, want %v", res.Positions, want)
	}
}

func TestQueryConjErrors(t *testing.T) {
	s, _, token := conjFixture(t, 16)
	if _, _, err := s.QueryConj("missing", []*ph.EncryptedQuery{token("dept", relation.String("HR"))}); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, _, err := s.QueryConj("emp", nil); err == nil {
		t.Fatal("empty conjunction must error")
	}
	if _, _, err := s.Read("emp", nil, wire.ReadFlagExplain); err == nil {
		t.Fatal("empty explain must error")
	}
}

// TestConcurrentAppendConjQuery races appends against conjunctive
// queries (plain and verified) under -race: every answer must be
// internally consistent — a prefix of the reference intersection
// computed over some append boundary — and verified answers must verify
// against the snapshot whose root they carry.
func TestConcurrentAppendConjQuery(t *testing.T) {
	s, scheme, token := conjFixture(t, 256)
	qs := []*ph.EncryptedQuery{token("dept", relation.String("HR")), token("dept", relation.String("HR"))}
	extra, err := workload.Employees(8, 99)
	if err != nil {
		t.Fatal(err)
	}
	ect, err := scheme.EncryptTable(extra)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := s.Append("emp", ect.Tuples); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					res, _, err := s.QueryConj("emp", qs)
					if err != nil {
						t.Error(err)
						return
					}
					if len(res.Positions) != len(res.Tuples) {
						t.Errorf("inconsistent result: %d positions, %d tuples", len(res.Positions), len(res.Tuples))
						return
					}
				} else {
					resp, _, err := s.Read("emp", qs, wire.ReadFlagVerified)
					if err != nil {
						t.Error(err)
						return
					}
					vr := resp.Verified
					if len(vr.Result.Tuples) == 0 {
						t.Error("racing verified answer is empty; nothing was verified")
						return
					}
					if err := verifyAt(s, "emp", vr); err != nil {
						t.Errorf("racing verified answer of %d tuples rejected: %v", len(vr.Result.Tuples), err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
