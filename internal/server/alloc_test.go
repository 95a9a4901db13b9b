package server

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

// widePH is fixturePH with columns five times as wide: its tokens are
// 82 bytes where fixturePH's are 42.
var widePH = sync.OnceValue(func() *core.PH {
	schema := relation.MustSchema("fix",
		relation.Column{Name: "parity", Type: relation.TypeString, Width: 48},
		relation.Column{Name: "id", Type: relation.TypeInt, Width: 48},
	)
	p, err := core.New(crypto.KeyFromBytes([]byte("server fixtures")), schema, core.Options{ChecksumLen: fixtureChecksumLen})
	if err != nil {
		panic(err)
	}
	return p
})

// requestUnder encodes one read request whose plans are lists of
// fixture tokens (a parity, or an id written by id) encrypted under p.
func requestUnder(t *testing.T, p *core.PH, flags byte, plans ...[]string) wire.Frame {
	t.Helper()
	qs := make([][]*ph.EncryptedQuery, len(plans))
	for i, tokens := range plans {
		for _, tok := range tokens {
			eq := relation.Eq{Column: "parity", Value: relation.String(tok)}
			if n, err := strconv.Atoi(tok); err == nil {
				eq = relation.Eq{Column: "id", Value: relation.Int(int64(n))}
			}
			q, err := p.EncryptQuery(eq)
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = append(qs[i], q)
		}
	}
	payload, err := query.EncodeRequest(nil, "emp", flags, qs)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Frame{Type: wire.CmdQuery, Payload: payload}
}

// dispatchAllocs is the objects one dispatch of frame(i) allocates, over
// runs dispatches after one to warm up, with before(i), when not nil,
// run ahead of each outside the count. Like testing.AllocsPerRun it
// runs on one P and divides in integers, so a pooled object the
// collector took back now and then does not move the count. Every
// answer must be a RespResult; the encode buffer is reused, as a
// connection reuses it.
func dispatchAllocs(t *testing.T, s *Server, runs int, before func(i int), frame func(i int) wire.Frame) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var scratch []byte
	var total uint64
	for i := -1; i < runs; i++ {
		if before != nil {
			before(i + 1)
		}
		f := frame(i + 1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		resp := s.dispatch(f, scratch[:0])
		runtime.ReadMemStats(&m1)
		if resp.Type != wire.RespResult {
			t.Fatalf("answered %#x: %s", resp.Type, resp.Payload)
		}
		if cap(resp.Payload) > cap(scratch) {
			scratch = resp.Payload
		}
		if i >= 0 {
			total += m1.Mallocs - m0.Mallocs
		}
	}
	return total / uint64(runs)
}

// TestDispatchReadSteadyStateAllocs pins what the server allocates to
// answer one CmdQuery frame on each read path, once warm: a cache hit, a
// cold scan, a delta over appended tuples, a verified read and a
// two-conjunct plan. Each count is per request, not per layer or per
// byte: it is the same for tokens of 42 and 82 bytes, and for a table of
// 64 tuples and one of 1,024, whose answers are 32 and 512 tuples. The
// counts are the request's name, its decoded plans (one allocation for
// a request of up to four conjuncts), the read's plan-and-answer, the
// answer's tuple and word-header arrays, the result cache's private copy
// of a hit and, where a path scans, its hit list and the cache entry and
// scan flight it writes.
func TestDispatchReadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled matchers and buffers at random under the race detector")
	}
	const runs = 50
	pins := map[string]uint64{
		"cache hit":     6,
		"cold scan":     9,
		"delta":         7,
		"verified":      6,
		"two conjuncts": 9,
	}
	got := map[string][]uint64{}
	for _, p := range []*core.PH{fixturePH(), widePH()} {
		for _, n := range []int{64, 1024} {
			s := New(storage.NewMemory(), nil)
			if resp := s.dispatch(storeFrame("emp", encryptFixture(p, n)), nil); resp.Type != wire.RespOK {
				t.Fatalf("store: %s", resp.Payload)
			}
			even := requestUnder(t, p, 0, []string{"even"})
			got["cache hit"] = append(got["cache hit"], dispatchAllocs(t, s, runs, nil, func(int) wire.Frame { return even }))

			cold := make([]wire.Frame, runs+1)
			for i := range cold {
				cold[i] = requestUnder(t, p, 0, []string{strconv.Itoa(i)})
			}
			got["cold scan"] = append(got["cold scan"], dispatchAllocs(t, s, runs, nil, func(i int) wire.Frame { return cold[i] }))

			verified := requestUnder(t, p, wire.ReadFlagVerified, []string{"even"})
			got["verified"] = append(got["verified"], dispatchAllocs(t, s, runs, nil, func(int) wire.Frame { return verified }))

			conj := requestUnder(t, p, 0, []string{"even", "2"})
			got["two conjuncts"] = append(got["two conjuncts"], dispatchAllocs(t, s, runs, nil, func(int) wire.Frame { return conj }))

			odd := requestUnder(t, p, 0, []string{"odd"})
			one := encryptFixture(p, 1).Tuples
			got["delta"] = append(got["delta"], dispatchAllocs(t, s, runs, func(int) {
				if resp := s.dispatch(insertFrame("emp", one), nil); resp.Type != wire.RespInserted {
					t.Fatalf("insert: %s", resp.Payload)
				}
			}, func(int) wire.Frame { return odd }))
		}
	}
	for path, counts := range got {
		t.Logf("%s: %v allocations per request", path, counts)
		for _, c := range counts {
			if c != pins[path] {
				t.Errorf("%s: %v allocations per request for (42-, 42-, 82-, 82-byte tokens) × (64, 1,024 tuples), want %d each", path, counts, pins[path])
				break
			}
		}
	}
}
