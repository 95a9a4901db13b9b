package storage

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// concTable builds n fixture tuples of one tag; concQuery(tag) matches
// them all.
func concTable(n int, tag byte) *ph.EncryptedTable { return fixtureTable(n, tag) }

func concQuery(tag byte) *ph.EncryptedQuery { return fixtureQuery("tag", int64(tag)) }

// TestConcurrentQueryDuringAppend is the satellite regression for the
// per-table locking rework: N goroutines query a table while another
// appends to it and unrelated tables churn. Run under -race this pins the
// absence of data races; the assertions pin snapshot consistency — every
// query sees some prefix-consistent tuple count, never a torn state.
func TestConcurrentQueryDuringAppend(t *testing.T) {
	s := NewMemory()
	const initial = 64
	if err := s.Put("hot", concTable(initial, 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("other", concTable(8, 0xBB)); err != nil {
		t.Fatal(err)
	}
	q := concQuery(0xAA)

	const (
		queriers = 6
		rounds   = 60
		appends  = 40
	)
	var wg sync.WaitGroup
	// One writer appending matching tuples to the hot table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := s.Append("hot", concTable(1, 0xAA).Tuples); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	// One churner mutating an unrelated table: must never block or corrupt
	// hot-table queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := s.Append("other", concTable(1, 0xBB).Tuples); err != nil {
				t.Errorf("churn: %v", err)
				return
			}
		}
	}()
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := initial
			for i := 0; i < rounds; i++ {
				res, err := s.Query("hot", q)
				if err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
				n := len(res.Positions)
				if n < initial || n > initial+appends {
					t.Errorf("querier %d: %d hits outside [%d, %d]", g, n, initial, initial+appends)
					return
				}
				// Appends only grow the table; a later query from the same
				// goroutine can never see fewer matches.
				if n < last {
					t.Errorf("querier %d: hit count went backwards %d -> %d", g, last, n)
					return
				}
				last = n
			}
		}(g)
	}
	wg.Wait()

	res, err := s.Query("hot", q)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Positions); got != initial+appends {
		t.Fatalf("final hit count %d, want %d", got, initial+appends)
	}
}

// TestConcurrentQueryAcrossTables drives queries against many tables at
// once while tables are created and dropped, exercising the catalogue
// lock / table lock split.
func TestConcurrentQueryAcrossTables(t *testing.T) {
	s := NewMemory()
	const tables = 8
	for i := 0; i < tables; i++ {
		if err := s.Put(fmt.Sprintf("t%d", i), concTable(32, 0xAA)); err != nil {
			t.Fatal(err)
		}
	}
	q := concQuery(0xAA)
	var wg sync.WaitGroup
	for g := 0; g < tables; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g)
			for i := 0; i < 50; i++ {
				res, err := s.Query(name, q)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if len(res.Positions) != 32 {
					t.Errorf("%s: %d hits, want 32", name, len(res.Positions))
					return
				}
			}
		}(g)
	}
	// Concurrent churn on a separate table name: put/drop cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := s.Put("churn", concTable(4, 0xCC)); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
			if err := s.Drop("churn"); err != nil {
				t.Errorf("churn drop: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestBatchIsOneCut: a request's plans are answered under one hold of
// the table's read lock. Plan 0's cold scan is held until an Append of
// one matching tuple waits on the table's write lock; then plan 1, which
// matches every tuple, must not see it, and a verified batch's answers
// must carry one root, leaf count and version.
func TestBatchIsOneCut(t *testing.T) {
	const n = 8
	for _, flags := range []byte{0, wire.ReadFlagVerified} {
		s := NewMemory()
		if err := s.Put("hot", concTable(n, 0xAA)); err != nil {
			t.Fatal(err)
		}
		e, _ := s.entry("hot")
		entered, release := holdNextScan(t)
		var resps []query.Response
		read, appended := make(chan error), make(chan error)
		go func() {
			var err error
			resps, err = s.Read("hot", flags, [][]*ph.EncryptedQuery{{fixtureQuery("n", 3)}, {concQuery(0xAA)}})
			read <- err
		}()
		<-entered
		go func() { appended <- s.Append("hot", concTable(1, 0xAA).Tuples) }()
		for e.mu.TryRLock() { // fails once the append waits for the batch's lock
			e.mu.RUnlock()
			runtime.Gosched()
		}
		close(release)
		if err := errors.Join(<-read, <-appended); err != nil {
			t.Fatal(err)
		}
		if got := resps[1].Matches().Positions; len(got) != n {
			t.Fatalf("flags %#x: plan 1 answered %d tuples of %d: an append landed inside the batch", flags, len(got), n)
		}
		if a, b := resps[0].Verified, resps[1].Verified; a != nil &&
			(a.Leaves != n || b.Leaves != n || a.Version != b.Version || !bytes.Equal(a.Root, b.Root)) {
			t.Fatalf("one batch answered from two cuts: (%d leaves, version %d) and (%d leaves, version %d)", a.Leaves, a.Version, b.Leaves, b.Version)
		}
	}
}
