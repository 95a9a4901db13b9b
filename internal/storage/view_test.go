package storage

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// TestReadHitAllocs: a cache hit answers by view — the stored tuple
// headers copied by value, their bytes shared — so it costs a handful of
// allocations whatever the answer's size.
func TestReadHitAllocs(t *testing.T) {
	q := concQuery(0xAA)
	for _, k := range []int{10, 400} {
		s := NewMemory()
		if err := s.Put("hot", concTable(k, 0xAA)); err != nil {
			t.Fatal(err)
		}
		if res, err := s.Query("hot", q); err != nil || len(res.Tuples) != k {
			t.Fatalf("warming query: %v", err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Query("hot", q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Fatalf("a %d-tuple cache hit allocates %v objects, want at most 16", k, allocs)
		}
	}
}

// TestAppendStampedAllocsFlat: an append encodes its log record into a
// pooled buffer, so a logged append of 256 tuples allocates what one of 4
// does.
func TestAppendStampedAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	counts := map[int]float64{}
	for _, k := range []int{4, 256} {
		s, err := OpenOptions(filepath.Join(t.TempDir(), "store.log"), Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("t", concTable(8, 0xAA)); err != nil {
			t.Fatal(err)
		}
		batch := concTable(k, 0xBB).Tuples
		counts[k] = testing.AllocsPerRun(50, func() {
			if _, _, err := s.AppendStamped("t", batch); err != nil {
				t.Fatal(err)
			}
		})
		s.Close()
	}
	if counts[4] != counts[256] {
		t.Fatalf("AppendStamped allocates %v objects for 4 tuples, %v for 256", counts[4], counts[256])
	}
	t.Logf("allocs per append: %v", counts[4])
}

// TestReadViewDuringAppends runs appends beside reads whose answers are
// encoded, as the server does, after Read has released the table lock.
// Batches of one to three tuples make the tuple slice grow both in place
// and by reallocation under the views. Every encoded answer must equal the
// encoding of the same positions cut from a later Get snapshot: stored
// tuples never change, so a view is as good as a copy. Run with -race.
func TestReadViewDuringAppends(t *testing.T) {
	s := NewMemory()
	if err := s.Put("hot", concTable(64, 0xAA)); err != nil {
		t.Fatal(err)
	}
	q := concQuery(0xAA)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			batch := make([]ph.EncryptedTuple, 1+i%3)
			for j := range batch {
				batch[j] = ph.EncryptedTuple{ID: []byte{byte(i), byte(j), 0xF0}, Words: [][]byte{{0xAA, byte(i)}, {byte(j)}}}
			}
			if err := s.Append("hot", batch); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			flags := []byte{0, wire.ReadFlagVerified}[g%2]
			for i := 0; i < 60; i++ {
				resp, _, err := s.Read("hot", []*ph.EncryptedQuery{q}, flags)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				_, dec, err := query.DecodeResponses(query.EncodeResponses(nil, flags, []query.Response{resp}))
				if err != nil {
					t.Errorf("decoding the encoded answer: %v", err)
					return
				}
				got := wire.EncodeResult(nil, dec[0].Matches())
				snap, err := s.Get("hot")
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				want := wire.EncodeResult(nil, ph.SelectPositions(snap, resp.Matches().Positions))
				if !bytes.Equal(got, want) {
					t.Errorf("reader %d: an answer of %d tuples encodes differently from the snapshot's", g, len(resp.Matches().Positions))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
