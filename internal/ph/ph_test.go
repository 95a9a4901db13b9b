package ph

import (
	"fmt"
	"reflect"
	"testing"
)

// registerForTest registers ev under id until the test ends, so a
// re-run (-count) registers afresh instead of tripping the duplicate
// panic.
func registerForTest(t *testing.T, id string, ev Evaluator) {
	t.Helper()
	RegisterEvaluator(id, ev)
	t.Cleanup(func() {
		evalMu.Lock()
		delete(evaluators, id)
		evalMu.Unlock()
	})
}

func TestRegistryDispatch(t *testing.T) {
	registerForTest(t, "test-dispatch", func(et *EncryptedTable, q *EncryptedQuery) (*Result, error) {
		return SelectPositions(et, []int{0}), nil
	})
	et := &EncryptedTable{
		SchemeID: "test-dispatch",
		Tuples:   []EncryptedTuple{{ID: []byte("a")}, {ID: []byte("b")}},
	}
	res, err := Apply(et, &EncryptedQuery{SchemeID: "test-dispatch"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 1 || res.Positions[0] != 0 {
		t.Fatalf("dispatch returned %v", res.Positions)
	}
	if string(res.Tuples[0].ID) != "a" {
		t.Fatalf("wrong tuple selected: %q", res.Tuples[0].ID)
	}
}

func TestApplySchemeMismatch(t *testing.T) {
	et := &EncryptedTable{SchemeID: "scheme-a"}
	if _, err := Apply(et, &EncryptedQuery{SchemeID: "scheme-b"}); err == nil {
		t.Fatal("cross-scheme apply accepted")
	}
}

func TestApplyUnknownScheme(t *testing.T) {
	et := &EncryptedTable{SchemeID: "never-registered"}
	if _, err := Apply(et, &EncryptedQuery{SchemeID: "never-registered"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	registerForTest(t, "test-dup", func(*EncryptedTable, *EncryptedQuery) (*Result, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterEvaluator("test-dup", func(*EncryptedTable, *EncryptedQuery) (*Result, error) { return nil, nil })
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil evaluator registration did not panic")
		}
	}()
	RegisterEvaluator("test-nil", nil)
}

func TestEvaluatorsSorted(t *testing.T) {
	registerForTest(t, "test-zz", func(*EncryptedTable, *EncryptedQuery) (*Result, error) { return nil, nil })
	registerForTest(t, "test-aa", func(*EncryptedTable, *EncryptedQuery) (*Result, error) { return nil, nil })
	ids := Evaluators()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] > ids[i] {
			t.Fatalf("Evaluators not sorted: %v", ids)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	et := &EncryptedTable{
		SchemeID: "x",
		Meta:     []byte{1, 2},
		Tuples: []EncryptedTuple{{
			ID:    []byte{3},
			Blob:  []byte{4},
			Words: [][]byte{{5, 6}},
		}},
	}
	cl := et.Clone()
	cl.Meta[0] = 9
	cl.Tuples[0].ID[0] = 9
	cl.Tuples[0].Words[0][0] = 9
	if et.Meta[0] != 1 || et.Tuples[0].ID[0] != 3 || et.Tuples[0].Words[0][0] != 5 {
		t.Fatal("Clone shares backing arrays with the original")
	}
}

func TestSelectPositionsCopies(t *testing.T) {
	et := &EncryptedTable{
		SchemeID: "x",
		Tuples:   []EncryptedTuple{{ID: []byte{1}}, {ID: []byte{2}}, {ID: []byte{3}}},
	}
	res := SelectPositions(et, []int{1, 2})
	res.Tuples[0].ID[0] = 99
	if et.Tuples[1].ID[0] != 2 {
		t.Fatal("SelectPositions shares tuple memory with the table")
	}
	if fmt.Sprint(res.Positions) != "[1 2]" {
		t.Fatalf("positions: %v", res.Positions)
	}
}

func TestIntersectPositions(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{[]int{1, 3, 5}, []int{2, 3, 5, 7}, []int{3, 5}},
		{nil, []int{1}, []int{}},
		{[]int{1}, nil, []int{}},
		{[]int{1, 2, 3}, []int{1, 2, 3}, []int{1, 2, 3}},
		{[]int{1, 2}, []int{3, 4}, []int{}},
	}
	for _, c := range cases {
		if got := IntersectPositions(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("IntersectPositions(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
