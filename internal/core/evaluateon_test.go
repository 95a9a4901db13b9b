package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/workload"
)

// evalOnFixture encrypts an employee table and returns the ciphertext
// plus an encrypted query for the given department.
func evalOnFixture(t *testing.T, n int, dept string) (*ph.EncryptedTable, *ph.EncryptedQuery) {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	table, err := workload.Employees(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := New(key, table.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	et, err := scheme.EncryptTable(table)
	if err != nil {
		t.Fatal(err)
	}
	q, err := scheme.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String(dept)})
	if err != nil {
		t.Fatal(err)
	}
	return et, q
}

// TestEvaluateOnMatchesEvaluate checks the narrowing invariant on tables
// both below and above the parallel threshold, and on the int table,
// whose words take more than one stream block: for any candidate set,
// EvaluateSlab(candidates) == Evaluate() ∩ candidates.
func TestEvaluateOnMatchesEvaluate(t *testing.T) {
	type input struct {
		name string
		et   *ph.EncryptedTable
		q    *ph.EncryptedQuery
	}
	var inputs []input
	for _, n := range []int{64, 3000} {
		et, q := evalOnFixture(t, n, "HR")
		inputs = append(inputs, input{fmt.Sprintf("emp n=%d", n), et, q})
	}
	ints := intsTable(t, benchTuples)
	q, err := ints.p.EncryptQuery(relation.Eq{Column: "k", Value: ints.t.Tuple(benchTuples / 2)[0]})
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"ints", ints.ct, q})
	for _, in := range inputs {
		et, q := in.et, in.q
		full, err := Evaluate(et, q)
		if err != nil {
			t.Fatal(err)
		}
		candidateSets := [][]int{
			nil,                                   // whole table
			[]int{},                               // no candidates at all
			ascendingRange(0, len(et.Tuples)),     // everything, explicitly
			ascendingRange(0, len(et.Tuples)/2),   // first half
			everyKth(len(et.Tuples), 3),           // strided
			append([]int(nil), full.Positions...), // exactly the matches
			ascendingRange(len(et.Tuples)-1, len(et.Tuples)),
		}
		for ci, cands := range candidateSets {
			got, err := EvaluateSlab(ph.NewSlab(et), q, 0, cands)
			if err != nil {
				t.Fatalf("%s case %d: %v", in.name, ci, err)
			}
			// Nil selects the whole table; anything else intersects.
			want := full.Positions
			if cands != nil {
				want = ph.IntersectPositions(cands, full.Positions)
			}
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("%s case %d: EvaluateSlab = %v, want %v", in.name, ci, got, want)
			}
		}
	}
}

func TestEvaluateOnRejectsBadCandidates(t *testing.T) {
	et, q := evalOnFixture(t, 32, "HR")
	for _, cands := range [][]int{{-1}, {32}, {5, 5}, {7, 3}} {
		if _, err := EvaluateSlab(ph.NewSlab(et), q, 0, cands); err == nil {
			t.Fatalf("candidates %v must be rejected", cands)
		}
	}
}

func ascendingRange(lo, hi int) []int {
	if hi <= lo {
		return nil
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func everyKth(n, k int) []int {
	var out []int
	for i := 0; i < n; i += k {
		out = append(out, i)
	}
	return out
}

func normalize(xs []int) []int {
	if len(xs) == 0 {
		return []int{}
	}
	return xs
}
