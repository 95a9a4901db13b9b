package relation

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name string
		sn   string
		cols []Column
		ok   bool
	}{
		{"valid", "t", []Column{{Name: "a", Type: TypeString, Width: 4}}, true},
		{"empty name", "", []Column{{Name: "a", Type: TypeString, Width: 4}}, false},
		{"no columns", "t", nil, false},
		{"empty column name", "t", []Column{{Name: "", Type: TypeInt, Width: 4}}, false},
		{"bad type", "t", []Column{{Name: "a", Type: TypeInvalid, Width: 4}}, false},
		{"zero width", "t", []Column{{Name: "a", Type: TypeString, Width: 0}}, false},
		{"negative width", "t", []Column{{Name: "a", Type: TypeString, Width: -1}}, false},
		{"duplicate column", "t", []Column{
			{Name: "a", Type: TypeString, Width: 4},
			{Name: "a", Type: TypeInt, Width: 4},
		}, false},
	}
	for _, c := range cases {
		_, err := NewSchema(c.sn, c.cols...)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestSchemaLookup(t *testing.T) {
	s := MustSchema("t",
		Column{Name: "a", Type: TypeString, Width: 4},
		Column{Name: "b", Type: TypeInt, Width: 6},
	)
	if i := s.ColumnIndex("b"); i != 1 {
		t.Fatalf("ColumnIndex(b) = %d, want 1", i)
	}
	if i := s.ColumnIndex("zzz"); i != -1 {
		t.Fatalf("ColumnIndex(zzz) = %d, want -1", i)
	}
	c, ok := s.Column("a")
	if !ok || c.Type != TypeString {
		t.Fatalf("Column(a) = %+v, %v", c, ok)
	}
	if s.NumColumns() != 2 {
		t.Fatalf("NumColumns = %d", s.NumColumns())
	}
}

func TestSchemaEqual(t *testing.T) {
	a := MustSchema("t", Column{Name: "a", Type: TypeString, Width: 4})
	b := MustSchema("t", Column{Name: "a", Type: TypeString, Width: 4})
	c := MustSchema("t", Column{Name: "a", Type: TypeString, Width: 5})
	d := MustSchema("u", Column{Name: "a", Type: TypeString, Width: 4})
	if !a.Equal(b) {
		t.Fatal("identical schemas not equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Fatal("different schemas reported equal")
	}
	if a.Equal(nil) {
		t.Fatal("schema equal to nil")
	}
}

func TestValueBasics(t *testing.T) {
	s := String("hi")
	i := Int(-42)
	if s.Type() != TypeString || i.Type() != TypeInt {
		t.Fatal("wrong types")
	}
	if s.Encode() != "hi" || i.Encode() != "-42" {
		t.Fatalf("Encode: %q %q", s.Encode(), i.Encode())
	}
	if !s.Equal(String("hi")) || s.Equal(String("ho")) || s.Equal(Int(0)) {
		t.Fatal("Equal misbehaves")
	}
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) {
		t.Fatal("Less misbehaves on ints")
	}
	if !String("a").Less(String("b")) {
		t.Fatal("Less misbehaves on strings")
	}
}

// TestDecimalLenIsFormatInt: CheckAgainst counts an int's digits instead
// of formatting them; the count is len(strconv.FormatInt) at every power
// of ten's edge and at both ends of int64.
func TestDecimalLenIsFormatInt(t *testing.T) {
	for _, v := range []int64{0, 9, -9, 10, -10, 99999, -99999, 100000, -100000, math.MinInt64, math.MaxInt64, math.MinInt64 + 1} {
		if got, want := decimalLen(v), len(strconv.FormatInt(v, 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestTableAdoptKeepsTheTuple: Adopt validates as Insert does but stores
// the tuple itself, so tuples cut from one slab stay where they were cut.
func TestTableAdoptKeepsTheTuple(t *testing.T) {
	s := MustSchema("r", Column{Name: "a", Type: TypeInt, Width: 3})
	tab := NewTable(s)
	slab := []Value{Int(1), Int(2), Int(50000)}
	for i := range slab[:2] {
		if err := tab.Adopt(slab[i : i+1 : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Adopt(slab[2:3]); err == nil {
		t.Fatal("Adopt accepted a value wider than its column")
	}
	if tab.Len() != 2 || &tab.Tuple(1)[0] != &slab[1] {
		t.Fatalf("Adopt stored %d tuples, the second not the slab's own", tab.Len())
	}
}

func TestValueCheckAgainst(t *testing.T) {
	col := Column{Name: "a", Type: TypeString, Width: 3}
	if err := String("abc").CheckAgainst(col); err != nil {
		t.Fatalf("fitting value rejected: %v", err)
	}
	if err := String("abcd").CheckAgainst(col); err == nil {
		t.Fatal("overflowing value accepted")
	}
	if err := Int(1).CheckAgainst(col); err == nil {
		t.Fatal("type mismatch accepted")
	}
	icol := Column{Name: "n", Type: TypeInt, Width: 2}
	if err := Int(-99).CheckAgainst(icol); err != nil {
		t.Fatalf("signed value within width rejected: %v", err)
	}
	// EncodedWidth is Width+1 (sign allowance), so the byte budget is 3.
	if err := Int(1000).CheckAgainst(icol); err == nil || !strings.Contains(err.Error(), "encoded 4 bytes, max 3") {
		t.Fatalf("4-byte value in width-2 (3-byte budget) column: %v", err)
	}
	if err := Int(-100).CheckAgainst(icol); err == nil {
		t.Fatal("4-byte negative value accepted in a 3-byte budget")
	}
	wide := Column{Name: "w", Type: TypeInt, Width: 19}
	for _, v := range []int64{math.MinInt64, math.MaxInt64, 0, 75000} {
		if err := Int(v).CheckAgainst(wide); err != nil {
			t.Fatalf("%d rejected by a 20-byte budget: %v", v, err)
		}
	}
	// Table.Insert checks every value it stores: measuring an int must not
	// allocate its digits.
	if allocs := testing.AllocsPerRun(100, func() { _ = Int(75000).CheckAgainst(wide) }); allocs != 0 {
		t.Fatalf("CheckAgainst on an int allocates %v times", allocs)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	a := Tuple{String("ab"), String("c")}
	b := Tuple{String("a"), String("bc")}
	if a.Key() == b.Key() {
		t.Fatal("Tuple.Key not injective across field boundaries")
	}
	c := Tuple{String("x"), Int(1)}
	d := Tuple{String("x"), String("1")}
	if c.Key() == d.Key() {
		t.Fatal("Tuple.Key not type-aware")
	}
}

func TestTableInsertValidation(t *testing.T) {
	s := MustSchema("t",
		Column{Name: "a", Type: TypeString, Width: 2},
		Column{Name: "n", Type: TypeInt, Width: 3},
	)
	tab := NewTable(s)
	if err := tab.Insert(Tuple{String("ok"), Int(5)}); err != nil {
		t.Fatalf("valid insert failed: %v", err)
	}
	if err := tab.Insert(Tuple{String("ok")}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := tab.Insert(Tuple{String("too long"), Int(5)}); err == nil {
		t.Fatal("overflow accepted")
	}
	if err := tab.Insert(Tuple{Int(5), Int(5)}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if tab.Len() != 1 {
		t.Fatalf("failed inserts mutated the table: len=%d", tab.Len())
	}
}

func TestTableInsertCopies(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeString, Width: 4})
	tab := NewTable(s)
	tp := Tuple{String("orig")}
	if err := tab.Insert(tp); err != nil {
		t.Fatal(err)
	}
	tp[0] = String("mut")
	if tab.Tuple(0)[0].Str() != "orig" {
		t.Fatal("Insert did not copy the tuple")
	}
}

func TestTableEqualMultiset(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeInt, Width: 3})
	mk := func(vals ...int64) *Table {
		tab := NewTable(s)
		for _, v := range vals {
			tab.MustInsert(Int(v))
		}
		return tab
	}
	if !mk(1, 2, 2, 3).Equal(mk(3, 2, 1, 2)) {
		t.Fatal("order should not matter")
	}
	if mk(1, 2, 2).Equal(mk(1, 2, 3)) {
		t.Fatal("different multisets equal")
	}
	if mk(1, 2).Equal(mk(1, 2, 2)) {
		t.Fatal("different cardinalities equal")
	}
	if mk(1, 1, 2).Equal(mk(1, 2, 2)) {
		t.Fatal("different multiplicities equal")
	}
}

func TestTableCloneIndependent(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeInt, Width: 3})
	tab := NewTable(s)
	tab.MustInsert(Int(1))
	cl := tab.Clone()
	cl.MustInsert(Int(2))
	if tab.Len() != 1 || cl.Len() != 2 {
		t.Fatal("Clone shares state with original")
	}
}

func TestTableSortedDeterministic(t *testing.T) {
	s := MustSchema("t",
		Column{Name: "a", Type: TypeString, Width: 2},
		Column{Name: "n", Type: TypeInt, Width: 3},
	)
	tab := NewTable(s)
	tab.MustInsert(String("b"), Int(2))
	tab.MustInsert(String("a"), Int(9))
	tab.MustInsert(String("a"), Int(1))
	got := tab.Sorted()
	want := [][2]string{{"a", "1"}, {"a", "9"}, {"b", "2"}}
	for i, w := range want {
		if got.Tuple(i)[0].Encode() != w[0] || got.Tuple(i)[1].Encode() != w[1] {
			t.Fatalf("sorted row %d = %v, want %v", i, got.Tuple(i), w)
		}
	}
}

func TestTableString(t *testing.T) {
	s := MustSchema("t", Column{Name: "a", Type: TypeString, Width: 4})
	tab := NewTable(s)
	tab.MustInsert(String("x"))
	out := tab.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "x") {
		t.Fatalf("String output missing content: %q", out)
	}
}
