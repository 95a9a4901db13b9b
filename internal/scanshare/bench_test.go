package scanshare_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/ph"
)

// benchRiders measures 16 simultaneous cold queries against one table
// through a fresh memo: the same trapdoor 16 times (one scan, 15
// waiters) or 16 different ones (16 scans under the scheduler budget).
func benchRiders(b *testing.B, identical bool) {
	f := newFixture(b, 8192, 42)
	queries := make([]*ph.EncryptedQuery, 16)
	for i := range queries {
		name := "Bench000"
		if !identical {
			name = fmt.Sprintf("Bench%03d", i)
		}
		queries[i] = f.query(b, "name", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cache.New(0)
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func(q *ph.EncryptedQuery) {
				defer wg.Done()
				if _, err := f.scan(s, q, nil); err != nil {
					b.Error(err)
				}
			}(q)
		}
		wg.Wait()
	}
}

func BenchmarkIdenticalTrapdoors16(b *testing.B) { benchRiders(b, true) }
func BenchmarkDistinctTrapdoors16(b *testing.B)  { benchRiders(b, false) }
