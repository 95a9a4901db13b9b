package oracle

import (
	"testing"
	"time"

	"repro/internal/authindex"
	"repro/internal/query"
	"repro/internal/relation"
)

var topologies = []Topology{Memory(), Durable(), Sharded(2)}

// TestDefinition11 runs 64 seeded histories on the three topologies and
// then checks that every shape × verified × topology cell saw an answer
// with rows, an empty answer and, verified, a refused tampering.
func TestDefinition11(t *testing.T) {
	start := time.Now()
	seen := Check(t, 1, 64, 40, topologies...)
	t.Logf("64 histories of 40 operations in %v:\n%v", time.Since(start).Round(time.Millisecond), seen)
	if err := seen.Vacant(topologies...); err != nil {
		t.Fatal(err)
	}
}

// TestShrinkIsMinimal: delta debugging cuts a failing history down to
// the operations the failure needs, here a drop and two puts.
func TestShrinkIsMinimal(t *testing.T) {
	needs := func(h History) bool {
		n := map[Kind]int{}
		for _, op := range h {
			n[op.Kind]++
		}
		return n[OpDrop] > 0 && n[OpPut] > 1
	}
	if h := Generate(3, 60); !needs(h) {
		t.Fatal("fixture: the history has no drop or a single put")
	} else if small := Shrink(h, needs); len(small) != 3 {
		t.Fatalf("shrunk to %d operations, want 3:\n%v", len(small), small)
	}
}

// TestKnownGapWithheldTuple is ROADMAP C's gap, printed and not gated: a
// server that leaves one matching tuple out of a verified answer, and
// proves the rest, passes verification — proofs vouch for what is
// returned, not for what is missing.
func TestKnownGapWithheldTuple(t *testing.T) {
	r := New(t, nil, Memory())
	hr := relation.Tuple{relation.String("Ada"), relation.String("HR"), relation.Int(1000)}
	r.Do(Put([]relation.Tuple{hr, hr, hr}))
	r.Tap(0, 0).Rewrite(func(resps []query.Response) {
		vr := resps[0].Verified
		n := len(vr.Result.Tuples) - 1
		vr.Result.Positions, vr.Result.Tuples = vr.Result.Positions[:n], vr.Result.Tuples[:n]
		et, err := r.Stores(0)[0].Get("emp")
		if err == nil {
			vr.Multiproof, err = authindex.Build(et).ProveAnswer(vr.Result.Positions)
		}
		if err != nil {
			t.Error(err)
		}
	})
	if got, err := r.DB(0).Select(Eq("dept", "HR")); err != nil {
		t.Logf("known gap closed: an answer with one of 3 matches withheld was refused: %v", err)
	} else {
		t.Logf("known gap (ROADMAP C): a verified select of 3 matching rows, served with one withheld and the rest proved, verifies with %d rows", got.Len())
	}
}
