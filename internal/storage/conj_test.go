package storage

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
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
