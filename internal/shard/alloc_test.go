package shard

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
)

// TestCoordinatorReadSteadyStateAllocs pins what one read through an
// in-process coordinator of two shards allocates once warm, the client
// side and both shard servers together: a plain select and a verified
// one, each a cache hit on both shards. Each count is per request: it
// is the same for a name token and a dept token, which differ in
// length (the columns are their own widths), and for answers of 20 and
// of 200 tuples of a 600-tuple table, each split over both shards (all
// 20 on one shard has probability 2^-19). An empty answer costs less:
// a shard that matches nothing sends no positions or tuples to decode.
func TestCoordinatorReadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled matchers and buffers at random under the race detector")
	}
	const plainPin, verifiedPin = 29, 29
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(key, shardSchema(), core.Options{PerColumnWidth: true})
	if err != nil {
		t.Fatal(err)
	}
	plain := relation.NewTable(shardSchema())
	depts := []string{"HR", "IT", "OPS"}
	for i := range 600 {
		plain.MustInsert(relation.String(fmt.Sprintf("emp%02d", i%30)), relation.String(depts[i%3]), relation.Int(int64(5000+i)))
	}
	ct, err := s.EncryptTable(plain)
	if err != nil {
		t.Fatal(err)
	}
	co, _ := newCluster(t, 2)
	if err := co.Store("emp", ct); err != nil {
		t.Fatal(err)
	}
	tokens := map[string]*ph.EncryptedQuery{}
	for what, eq := range map[string]relation.Eq{
		"20 tuples by name":  {Column: "name", Value: relation.String("emp07")},
		"200 tuples by dept": {Column: "dept", Value: relation.String("IT")},
	} {
		q, err := s.EncryptQuery(eq)
		if err != nil {
			t.Fatal(err)
		}
		tokens[what] = q
	}
	if len(tokens["20 tuples by name"].Token) == len(tokens["200 tuples by dept"].Token) {
		t.Fatal("fixture: the name and dept tokens are of one length")
	}
	for what, q := range tokens {
		count := func(read func() int) float64 {
			read() // warm-up: both shards cache the token
			return testing.AllocsPerRun(50, func() { read() })
		}
		plainAllocs := count(func() int {
			res, err := co.Query("emp", q)
			if err != nil {
				t.Fatal(err)
			}
			return len(res[0].Tuples) + len(res[1].Tuples)
		})
		verifiedAllocs := count(func() int {
			vrs, err := co.QueryVerified("emp", q, nil)
			if err != nil {
				t.Fatal(err)
			}
			return len(vrs[0].Result.Tuples) + len(vrs[1].Result.Tuples)
		})
		t.Logf("%s: plain %v, verified %v allocations per read", what, plainAllocs, verifiedAllocs)
		if plainAllocs != plainPin || verifiedAllocs != verifiedPin {
			t.Errorf("%s: a plain read allocates %v objects, a verified one %v; want %d and %d", what, plainAllocs, verifiedAllocs, plainPin, verifiedPin)
		}
	}
}
