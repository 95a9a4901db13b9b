// Package oracle checks Definition 1.1 — decrypting the server's answer
// equals running the selection on the plaintext — on the served system.
// It runs seeded histories of mutations and reads of every shape,
// verified and not, through client.DB on several topologies side by
// side, holds every answer to relation.Select on a model table and to
// the other topologies, refuses tampered verified answers, allows an
// injected fault an error but never a wrong answer, and shrinks a
// failing history by delta debugging (after QuickCheck's state machines,
// Claessen and Hughes, ICFP 2000, and Zeller and Hildebrandt, TSE 2002).
// DESIGN.md describes the checks and the known gap.
package oracle

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/relation"
)

// Kind names an operation.
type Kind uint8

// The operations of a history.
const (
	OpPut     Kind = iota // CreateTable: replace the table with Rows
	OpAppend              // Insert Rows
	OpDrop                // drop the table on every node
	OpCompact             // Store.Compact on every store
	OpReopen              // restart the clients; crash and reopen a durable store
	OpCut                 // cut the follower's ship link
	OpHeal                // heal the ship link and catch the follower up
	OpRestart             // crash the follower and restart it on its own disk
	OpReplace             // replace the follower with one on an empty disk
	OpSelect              // Select(Eqs[0])
	OpConj                // SelectConj(Eqs)
	OpMany                // SelectMany(Eqs): one select per equality
	OpAll                 // SelectAll: a pinned client hashes the download
)

func (k Kind) String() string {
	return [...]string{"put", "append", "drop", "compact", "reopen", "cut", "heal", "restart", "replace", "select", "conj", "many", "all"}[k]
}

// Op is one step of a history.
type Op struct {
	Kind Kind
	Rows []relation.Tuple // a put's table or an append's tuples
	Eqs  []relation.Eq    // a read's equalities
	// Verified reads from the client that pins the roots; the other
	// client holds no root.
	Verified bool
	// Tamper serves a verified read again once per node, that node's
	// answers tampered on the wire (Tamper), and the client must refuse
	// each as a failed verification.
	Tamper bool
	// Workers > 0 sends an append through InsertBatch, in chunks of
	// Chunk tuples over Workers dialed connections; a sharded insert
	// already fans out and ignores both.
	Workers, Chunk int
	Fault          fault.FilePlan // a reopened durable store's log faults
}

// Put replaces the table with rows.
func Put(rows []relation.Tuple) Op { return Op{Kind: OpPut, Rows: rows} }

// Append inserts rows.
func Append(rows ...relation.Tuple) Op { return Op{Kind: OpAppend, Rows: rows} }

// Batched returns the append, sent through InsertBatch in chunks of
// chunk tuples over workers connections.
func (op Op) Batched(workers, chunk int) Op { op.Workers, op.Chunk = workers, chunk; return op }

// Drop drops the table.
func Drop() Op { return Op{Kind: OpDrop} }

// Compact compacts every store's log.
func Compact() Op { return Op{Kind: OpCompact} }

// Reopen restarts the clients from their persisted roots, and crashes
// and reopens a durable store with plan's log faults.
func Reopen(plan fault.FilePlan) Op { return Op{Kind: OpReopen, Fault: plan} }

// Cut tears the follower's ship link and refuses redials: it serves a
// stale cut.
func Cut() Op { return Op{Kind: OpCut} }

// Heal heals the ship link and waits until the follower is Ready at the
// primary's log head with its roots; the clients reconnect.
func Heal() Op { return Op{Kind: OpHeal} }

// Restart crashes the follower and restarts it on its disk, Ready at once.
func Restart() Op { return Op{Kind: OpRestart} }

// Replace replaces the follower with one on an empty disk, not Ready
// until a snapshot bootstrap has caught it up.
func Replace() Op { return Op{Kind: OpReplace} }

// Select reads one equality.
func Select(verified bool, eq relation.Eq) Op { return Conj(verified, eq).as(OpSelect) }

// Conj reads the conjunction of eqs.
func Conj(verified bool, eqs ...relation.Eq) Op {
	return Op{Kind: OpConj, Eqs: eqs, Verified: verified}
}

// Many reads each of eqs in one batch.
func Many(verified bool, eqs ...relation.Eq) Op { return Conj(verified, eqs...).as(OpMany) }

// All downloads the whole table.
func All(verified bool) Op { return Op{Kind: OpAll, Verified: verified} }

func (op Op) as(k Kind) Op { op.Kind = k; return op }

// Tampered returns the read, also served tampered.
func (op Op) Tampered() Op { op.Tamper = true; return op }

// Eq is the equality col = v, for a string or an int v.
func Eq(col string, v any) relation.Eq {
	if s, ok := v.(string); ok {
		return relation.Eq{Column: col, Value: relation.String(s)}
	}
	return relation.Eq{Column: col, Value: relation.Int(int64(v.(int)))}
}

func (op Op) String() string {
	s := fmt.Sprintf("%v verified=%v tamper=%v", op.Kind, op.Verified, op.Tamper)
	if op.Workers > 0 {
		s += fmt.Sprintf(" batch %d×%d", op.Workers, op.Chunk)
	}
	switch {
	case len(op.Rows) > 4:
		s += fmt.Sprintf(" %d rows %v …", len(op.Rows), op.Rows[:4])
	case op.Rows != nil:
		s += fmt.Sprintf(" %v", op.Rows)
	case op.Fault != fault.FilePlan{}:
		s += fmt.Sprintf(" %+v", op.Fault)
	}
	for _, eq := range op.Eqs {
		s += " " + eq.String()
	}
	return s
}

// History is a sequence of operations, run in order.
type History []Op

func (h History) String() string {
	var b strings.Builder
	for i, op := range h {
		fmt.Fprintf(&b, "%3d  %v\n", i, op)
	}
	return b.String()
}

// domain is what histories draw values from, per column of
// workload.EmployeeSchema: small, so reads repeat, rows repeat and
// appends land on cached answers. Each column's last value is never
// stored, so a read of it has an empty answer.
var domain = map[string][]relation.Value{
	"name":   {relation.String("Ada"), relation.String("Alan"), relation.String("Grace"), relation.String("Ken"), relation.String("Nobody")},
	"dept":   {relation.String("HR"), relation.String("IT"), relation.String("OPS"), relation.String("FIN"), relation.String("LEGAL")},
	"salary": {relation.Int(1000), relation.Int(2000), relation.Int(3000), relation.Int(99999)},
}

var columns = []string{"name", "dept", "salary"}

// Generate draws a history of n operations from seed. It opens with a
// put; one history in eight puts a table wider than the Merkle cap
// (authindex.CapNodes leaves), so its proofs carry siblings.
func Generate(seed int64, n int) History {
	rng := rand.New(rand.NewSource(seed))
	size := rng.Intn(24)
	if rng.Intn(8) == 0 {
		size = 4100 + rng.Intn(100)
	}
	h := History{Put(rows(rng, size))}
	for len(h) < n {
		verified := rng.Intn(2) == 0
		var op Op
		switch x := rng.Intn(110); {
		case x < 5:
			op = Put(rows(rng, rng.Intn(24)))
		case x < 20:
			op = Append(rows(rng, 1+rng.Intn(4))...)
		case x < 23:
			op = Drop()
		case x < 27:
			op = Compact()
		case x < 33:
			// None half the time, else a full disk, a torn write or a
			// crash somewhere in the log's first few records.
			at := 1 + rng.Int63n(800)
			op = Reopen([]fault.FilePlan{{FailWriteAfterBytes: at}, {FailWriteAfterBytes: at, ShortWrite: true},
				{CrashAtByte: at}, {}, {}, {}}[rng.Intn(6)])
		case x < 53:
			op = Select(verified, eqs(rng, 1)[0])
		case x < 68:
			op = Conj(verified, eqs(rng, 2+rng.Intn(2))...)
		case x < 85:
			op = Many(verified, eqs(rng, 1+rng.Intn(4))...)
		case x < 100:
			op = All(verified)
		default: // three cuts, three heals, two restarts and two replaces
			op = [...]Op{Cut(), Heal(), Restart(), Replace()}[x%4]
		}
		op.Tamper = op.Verified && rng.Intn(3) == 0
		h = append(h, op)
	}
	return h
}

func rows(rng *rand.Rand, n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		for _, c := range columns {
			out[i] = append(out[i], domain[c][rng.Intn(len(domain[c])-1)])
		}
	}
	return out
}

// eqs draws n equalities, one in six of a value never stored.
func eqs(rng *rand.Rand, n int) []relation.Eq {
	out := make([]relation.Eq, n)
	for i := range out {
		c := columns[rng.Intn(len(columns))]
		v := len(domain[c]) - 1
		if rng.Intn(6) > 0 {
			v = rng.Intn(v)
		}
		out[i] = relation.Eq{Column: c, Value: domain[c][v]}
	}
	return out
}

// Shrink returns a shorter history that still fails: delta debugging
// over the operation list, removing ever smaller chunks while fails
// holds, then cutting each put's and append's rows to the shortest
// prefix that still fails, found by bisection — so a failure that needs
// a table wider than the Merkle cap keeps just one row past it.
func Shrink(h History, fails func(History) bool) History {
	for n := 2; len(h) >= 2; {
		chunk, cut := (len(h)+n-1)/n, false
		for start := 0; start < len(h) && !cut; start += chunk {
			cand := append(h[:start:start], h[min(start+chunk, len(h)):]...)
			if cut = fails(cand); cut {
				h, n = cand, max(n-1, 2)
			}
		}
		if !cut && n >= len(h) {
			break
		} else if !cut {
			n = min(2*n, len(h))
		}
	}
	for i := range h {
		lo, hi := 1, len(h[i].Rows) // the history fails with hi rows
		for lo < hi {
			cand := append(History(nil), h...)
			if cand[i].Rows = h[i].Rows[:(lo+hi)/2]; fails(cand) {
				h, hi = cand, len(cand[i].Rows)
			} else {
				lo = len(cand[i].Rows) + 1
			}
		}
	}
	return h
}

// Check runs the histories of seeds first to first+count-1, ops
// operations each, on topos, and returns what their reads saw. A
// failing seed is shrunk, and the test fails printing the shrunk
// history.
func Check(t testing.TB, first int64, count, ops int, topos ...Topology) Tally {
	t.Helper()
	seen := Tally{}
	for seed := first; seed < first+int64(count); seed++ {
		h := Generate(seed, ops)
		if err := replay(t, h, seen, topos); err != nil {
			start := time.Now()
			small := Shrink(h, func(h History) bool { return replay(t, h, Tally{}, topos) != nil })
			took := time.Since(start).Round(time.Millisecond)
			// Document IDs are random, and they place tuples on shards: a
			// failure that needs one placement may not recur on replay.
			var again error
			for try := 0; try < 3 && again == nil; try++ {
				again = replay(t, small, Tally{}, topos)
			}
			if again == nil {
				t.Fatalf("seed %d: %v\nshrunk in %v to %d of %d operations, which passed 3 replays (a placement the random document IDs drew); the whole history:\n%v",
					seed, err, took, len(small), len(h), h)
			}
			t.Fatalf("seed %d: %v\nshrunk in %v to %d of %d operations, which fail with: %v\n%v", seed, err, took, len(small), len(h), again, small)
		}
	}
	return seen
}

// replay runs h on fresh topologies, counting into seen, and returns the
// first failure.
func replay(t testing.TB, h History, seen Tally, topos []Topology) error {
	r := New(t, nil, topos...)
	defer r.Close()
	r.Seen = seen
	return r.run(h)
}
