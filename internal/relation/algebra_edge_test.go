package relation

import "testing"

// Edge behaviour of Intersect: multiset semantics on duplicates and
// empty operands.

func TestIntersectDuplicateTuplesBothSides(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeInt, Width: 3})
	mk := func(vals ...int64) *Table {
		tab := NewTable(s)
		for _, v := range vals {
			tab.MustInsert(Int(v))
		}
		return tab
	}
	// Multiset semantics: min of the two multiplicities, per value.
	res, err := Intersect(mk(5, 5, 5, 7), mk(5, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(mk(5, 5)) {
		t.Fatalf("duplicate handling wrong: got %v", res)
	}
	// Symmetric multiplicities.
	res, err = Intersect(mk(5, 5), mk(5, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(mk(5, 5)) {
		t.Fatalf("duplicate handling wrong (short left): got %v", res)
	}
}

func TestIntersectEmptyOperands(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeInt, Width: 3})
	empty := NewTable(s)
	full := NewTable(s)
	full.MustInsert(Int(1))
	for _, c := range []struct {
		name string
		a, b *Table
	}{
		{"empty-left", empty, full},
		{"empty-right", full, empty},
		{"empty-both", empty, empty},
	} {
		res, err := Intersect(c.a, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Len() != 0 {
			t.Fatalf("%s: got %d tuples, want 0", c.name, res.Len())
		}
	}
}

// TestIntersectDifferingColumnOrder: the same columns in a different
// order are a *different* schema — Intersect must refuse rather than
// match positionally and silently compare name against dept.
func TestIntersectDifferingColumnOrder(t *testing.T) {
	a := NewTable(MustSchema("t",
		Column{Name: "a", Type: TypeInt, Width: 3},
		Column{Name: "b", Type: TypeInt, Width: 3},
	))
	b := NewTable(MustSchema("t",
		Column{Name: "b", Type: TypeInt, Width: 3},
		Column{Name: "a", Type: TypeInt, Width: 3},
	))
	a.MustInsert(Int(1), Int(2))
	b.MustInsert(Int(2), Int(1))
	if _, err := Intersect(a, b); err == nil {
		t.Fatal("differing column order accepted — positional comparison would be wrong")
	}
}

func TestIntersectPreservesLeftOrder(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeInt, Width: 3})
	mk := func(vals ...int64) *Table {
		tab := NewTable(s)
		for _, v := range vals {
			tab.MustInsert(Int(v))
		}
		return tab
	}
	res, err := Intersect(mk(9, 3, 5, 1), mk(1, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	want := mk(9, 3, 1)
	if res.Len() != want.Len() {
		t.Fatalf("got %d tuples, want %d", res.Len(), want.Len())
	}
	for i, tp := range res.Tuples() {
		if !tp[0].Equal(want.Tuples()[i][0]) {
			t.Fatalf("order not preserved: got %v, want %v", res, want)
		}
	}
}

func TestProjectMissingColumn(t *testing.T) {
	tab := empTestTable()
	if _, err := Project(tab, "name", "ghost"); err == nil {
		t.Fatal("projection of a missing column accepted")
	}
	if _, err := Project(tab); err == nil {
		t.Fatal("empty projection accepted")
	}
}

func TestProjectKeepsDuplicates(t *testing.T) {
	tab := empTestTable() // two HR rows, two salary-7500 rows
	res, err := Project(tab, "dept")
	if err != nil {
		t.Fatal(err)
	}
	// SELECT dept (no DISTINCT): one row per input tuple.
	if res.Len() != tab.Len() {
		t.Fatalf("projection dropped duplicates: %d rows, want %d", res.Len(), tab.Len())
	}
}

func TestProjectOnEmptyTable(t *testing.T) {
	empty := NewTable(empTestSchema())
	res, err := Project(empty, "name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("projection of empty table has %d rows", res.Len())
	}
}
