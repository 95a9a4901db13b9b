package oracle

import (
	"strings"
	"testing"
	"time"

	"repro/internal/authindex"
	"repro/internal/fault"
	"repro/internal/query"
	"repro/internal/relation"
)

var topologies = []Topology{Replicated(), Memory(), Durable(), Sharded(2)}

// TestDefinition11 runs 64 seeded histories on the four topologies and
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
// the operations the failure needs, here a drop and two puts; and a put
// down to the rows it needs, here one past the Merkle cap.
func TestShrinkIsMinimal(t *testing.T) {
	needs := func(h History) bool {
		n := map[Kind]int{}
		for _, op := range h {
			n[op.Kind]++
		}
		return n[OpDrop] > 0 && n[OpPut] > 1
	}
	if h := Generate(4, 60); !needs(h) {
		t.Fatal("fixture: the history has no drop or a single put")
	} else if small := Shrink(h, needs); len(small) != 3 {
		t.Fatalf("shrunk to %d operations, want 3:\n%v", len(small), small)
	}
	wide := func(h History) bool { return len(h) > 0 && len(h[0].Rows) > authindex.CapNodes }
	if small := Shrink(History{Put(make([]relation.Tuple, 4142)), Drop()}, wide); len(small) != 1 || len(small[0].Rows) != authindex.CapNodes+1 {
		t.Fatalf("shrunk to:\n%v want one put of %d rows", small, authindex.CapNodes+1)
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

// TestHealOverAFailedLog: a put refused by a full disk that would have
// left the table as it was keeps the model certain, but the primary's
// log head counts the record its log never took. Healing the link must
// not wait for the follower to reach that head.
func TestHealOverAFailedLog(t *testing.T) {
	r := New(t, nil, Replicated())
	hr := []relation.Tuple{{relation.String("Ada"), relation.String("HR"), relation.Int(1000)}}
	r.Do(Put(hr), Heal(), Reopen(fault.FilePlan{FailWriteAfterBytes: 1}), Put(hr), Heal(), Select(false, Eq("dept", "HR")))
}

// TestDropRefusesLaggingFollower is seed 8's history cut down: a table
// dropped while the ship link is cut stays on the follower, and a
// verified select of it must not verify there. The first select, served
// by the follower, gives the pin its cap, so the last one is routed to
// the follower too. The pinned client's drop pins every node to no
// table, so the follower's answer is refused and the follower
// quarantined, and the primary says the table is unknown.
func TestDropRefusesLaggingFollower(t *testing.T) {
	r := New(t, nil, Replicated())
	hr := Eq("dept", "HR")
	r.Do(Put([]relation.Tuple{{relation.String("Ada"), relation.String("HR"), relation.Int(1000)}}),
		Heal(), Select(true, hr), Cut(), Drop(), Select(true, hr))
	if st := r.DB(0).ReadStats(); st.ReplicaReads != 1 || st.ReplicaFailures != 1 {
		t.Fatalf("want the select before the drop served by the follower and the one after refused: %+v", st)
	}
	if _, err := r.DB(0).Select(hr); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("a verified select after the drop: %v, want the primary's unknown table", err)
	}
}
