package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/authindex"
	"repro/internal/ph"
)

// authTable builds n fixture tuples; authQuery(b) matches every tuple
// i with i % 3 == b.
func authTable(n int) *ph.EncryptedTable { return fixtureTable(n, 0) }

func authQuery(b byte) *ph.EncryptedQuery { return fixtureQuery("g", int64(b)) }

// verifyAt checks a verified answer as a client pinned to its snapshot
// does: the first vr.Leaves tuples of the stored table (appends only
// extend it) must hash to the root the answer carries, and its proof must
// fold its tuples into their cap row.
func verifyAt(s *Store, name string, vr *authindex.VerifiedResult) error {
	tab, err := s.Get(name)
	if err != nil {
		return err
	}
	if vr.Leaves > len(tab.Tuples) {
		return fmt.Errorf("answer cut from %d leaves, the table holds %d", vr.Leaves, len(tab.Tuples))
	}
	c := authindex.CapOf(&ph.EncryptedTable{Tuples: tab.Tuples[:vr.Leaves]})
	if !bytes.Equal(c.Root(), vr.Root) {
		return fmt.Errorf("answer's root is not that of the table's first %d tuples", vr.Leaves)
	}
	return authindex.VerifyAnswer(c.Row(), vr.Leaves, vr.Result.Positions, vr.Result.Tuples, vr.Multiproof)
}

// TestAppendStampedPlacement: base must be the pre-append tuple count and
// the version must match the table's.
func TestAppendStampedPlacement(t *testing.T) {
	s := NewMemory()
	if err := s.Put("emp", authTable(4)); err != nil {
		t.Fatal(err)
	}
	base, v1, err := s.AppendStamped("emp", authTable(3).Tuples)
	if err != nil {
		t.Fatal(err)
	}
	if base != 4 {
		t.Fatalf("first append base %d, want 4", base)
	}
	base, v2, err := s.AppendStamped("emp", authTable(2).Tuples)
	if err != nil {
		t.Fatal(err)
	}
	if base != 7 {
		t.Fatalf("second append base %d, want 7", base)
	}
	if v2 <= v1 {
		t.Fatalf("versions not monotonic: %d then %d", v1, v2)
	}
	if _, _, _, err := s.Root("emp"); err != nil {
		t.Fatal(err)
	}
	_, _, ver, err := s.Root("emp")
	if err != nil {
		t.Fatal(err)
	}
	if ver != v2 {
		t.Fatalf("Root version %d, want last append's %d", ver, v2)
	}
}

// TestConcurrentAppendVerifiedQuery is the -race gate for the versioned
// index: writers append while readers run verified queries; every answer
// must be internally consistent (proofs verify against the cap row of the
// snapshot whose root they carry), whatever interleaving the scheduler
// picks.
func TestConcurrentAppendVerifiedQuery(t *testing.T) {
	s := NewMemory()
	if err := s.Put("emp", authTable(64)); err != nil {
		t.Fatal(err)
	}
	const (
		writers = 3
		readers = 4
		appends = 40
		queries = 60
	)
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tail := authTable(2).Tuples
			for i := 0; i < appends; i++ {
				if err := s.Append("emp", tail); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				vr, err := s.QueryVerified("emp", authQuery(byte(i%3)))
				if err != nil {
					errs <- err
					return
				}
				if len(vr.Result.Tuples) == 0 {
					errs <- fmt.Errorf("query %d matched nothing; nothing was verified", i)
					return
				}
				if err := verifyAt(s, "emp", vr); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The settled tree must equal a rebuild over the final table.
	root, _, _, err := s.Root("emp")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := s.Get("emp")
	if want := authindex.Build(full).Root(); !bytes.Equal(root, want) {
		t.Fatal("settled incremental root differs from rebuild")
	}
}
