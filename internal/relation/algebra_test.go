package relation

import "testing"

func empTestSchema() *Schema {
	return MustSchema("emp",
		Column{Name: "name", Type: TypeString, Width: 10},
		Column{Name: "dept", Type: TypeString, Width: 5},
		Column{Name: "salary", Type: TypeInt, Width: 5},
	)
}

func empTestTable() *Table {
	t := NewTable(empTestSchema())
	t.MustInsert(String("Montgomery"), String("HR"), Int(7500))
	t.MustInsert(String("Ada"), String("IT"), Int(9100))
	t.MustInsert(String("Grace"), String("HR"), Int(8800))
	t.MustInsert(String("Alan"), String("IT"), Int(7500))
	return t
}

func TestSelectEq(t *testing.T) {
	tab := empTestTable()
	res, err := Select(tab, Eq{Column: "dept", Value: String("HR")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("σ_dept:HR returned %d tuples, want 2", res.Len())
	}
	for _, tp := range res.Tuples() {
		if tp[1].Str() != "HR" {
			t.Fatalf("non-matching tuple in result: %v", tp)
		}
	}
	// Select shares the input's tuples: on a table whose every tuple
	// matches, it allocates the result table and its tuple list, at any k.
	var hr Pred = Eq{Column: "dept", Value: String("HR")}
	for _, k := range []int{10, 1000} {
		all := NewTable(tab.Schema())
		for i := 0; i < k; i++ {
			all.MustInsert(String("Bob"), String("HR"), Int(4000))
		}
		if allocs := testing.AllocsPerRun(20, func() { Select(all, hr) }); allocs > 2 {
			t.Fatalf("Select keeping all %d tuples allocates %v objects, want at most 2", k, allocs)
		}
	}
}

func TestSelectEmptyResult(t *testing.T) {
	res, err := Select(empTestTable(), Eq{Column: "dept", Value: String("NONE")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("expected empty result, got %d tuples", res.Len())
	}
}

func TestSelectValidation(t *testing.T) {
	tab := empTestTable()
	if _, err := Select(tab, Eq{Column: "zzz", Value: String("x")}); err == nil {
		t.Fatal("select on unknown column accepted")
	}
	if _, err := Select(tab, Eq{Column: "salary", Value: String("x")}); err == nil {
		t.Fatal("type-mismatched predicate accepted")
	}
	if _, err := Select(tab, Eq{Column: "dept", Value: String("toolongvalue")}); err == nil {
		t.Fatal("out-of-range constant accepted")
	}
}

func TestAndPredicate(t *testing.T) {
	tab := empTestTable()
	pred := And{Preds: []Pred{
		Eq{Column: "dept", Value: String("IT")},
		Eq{Column: "salary", Value: Int(7500)},
	}}
	res, err := Select(tab, pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuple(0)[0].Str() != "Alan" {
		t.Fatalf("conjunction: got %v", res)
	}
	if _, err := Select(tab, And{}); err == nil {
		t.Fatal("empty conjunction accepted")
	}
}

func TestPredString(t *testing.T) {
	p := Eq{Column: "dept", Value: String("HR")}
	if p.String() != "σ_dept:HR" {
		t.Fatalf("Eq.String() = %q", p.String())
	}
	a := And{Preds: []Pred{p, Eq{Column: "salary", Value: Int(1)}}}
	if a.String() != "σ_dept:HR ∧ σ_salary:1" {
		t.Fatalf("And.String() = %q", a.String())
	}
}

func TestProject(t *testing.T) {
	tab := empTestTable()
	res, err := Project(tab, "salary", "name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema().NumColumns() != 2 {
		t.Fatalf("projected schema has %d columns", res.Schema().NumColumns())
	}
	if res.Schema().Columns[0].Name != "salary" || res.Schema().Columns[1].Name != "name" {
		t.Fatalf("projection order wrong: %v", res.Schema())
	}
	if res.Len() != tab.Len() {
		t.Fatalf("projection dropped tuples: %d vs %d (multiset semantics)", res.Len(), tab.Len())
	}
	if res.Tuple(0)[0].Integer() != 7500 || res.Tuple(0)[1].Str() != "Montgomery" {
		t.Fatalf("projected tuple wrong: %v", res.Tuple(0))
	}
}

func TestProjectErrors(t *testing.T) {
	tab := empTestTable()
	if _, err := Project(tab); err == nil {
		t.Fatal("empty projection accepted")
	}
	if _, err := Project(tab, "nope"); err == nil {
		t.Fatal("projection on unknown column accepted")
	}
}

func TestIntersectMultiset(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeInt, Width: 3})
	mk := func(vals ...int64) *Table {
		tab := NewTable(s)
		for _, v := range vals {
			tab.MustInsert(Int(v))
		}
		return tab
	}
	res, err := Intersect(mk(1, 2, 2, 3), mk(2, 2, 4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(mk(1, 2, 2)) {
		t.Fatalf("multiset intersection wrong: %v", res)
	}
}

func TestIntersectSchemaMismatch(t *testing.T) {
	a := NewTable(MustSchema("a", Column{Name: "x", Type: TypeInt, Width: 3}))
	b := NewTable(MustSchema("b", Column{Name: "x", Type: TypeInt, Width: 3}))
	if _, err := Intersect(a, b); err == nil {
		t.Fatal("intersect across schemas accepted")
	}
}
