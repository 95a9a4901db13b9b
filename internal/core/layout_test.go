package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestLayoutPaperExample(t *testing.T) {
	// The paper's running example: Emp(name:string[9], dept:string[5],
	// salary:int) maps ⟨"Montgomery","HR",7500⟩ to
	// {"MontgomeryN", "HR########D", "7500######S"}. (The paper's own
	// instance "Montgomery" is 10 characters, so we declare width 10.)
	l, err := newLayout(empSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 3; col++ {
		if n := l.wordLenFor(col); n != 11 {
			t.Fatalf("word length for column %d = %d, want 11 (widest value 10 + id byte)", col, n)
		}
	}
	cases := []struct {
		col  int
		v    relation.Value
		want string
	}{
		{0, relation.String("Montgomery"), "MontgomeryN"},
		{1, relation.String("HR"), "HR########D"},
		{2, relation.Int(7500), "7500######S"},
	}
	for _, c := range cases {
		w, err := l.makeWord(nil, c.col, c.v)
		if err != nil {
			t.Fatalf("makeWord(%d, %v): %v", c.col, c.v, err)
		}
		if string(w) != c.want {
			t.Errorf("makeWord(%d, %v) = %q, want %q", c.col, c.v, w, c.want)
		}
	}
}

// pow10 is 10^n, exact in a float64 for every n this file uses.
func pow10(n int) int64 { return int64(math.Pow10(n)) }

// TestLayoutParseWordInverts: parseWord(makeWord(v)) is v in both
// layouts, for empty strings, values filling their width and ints of
// exactly the value width (the fixed layout's 10 bytes, the per-column
// salary's 6), positive and negative.
func TestLayoutParseWordInverts(t *testing.T) {
	for _, perCol := range []bool{false, true} {
		l, err := newLayout(empSchema(), perCol)
		if err != nil {
			t.Fatal(err)
		}
		width := l.valueWidthFor(2)
		cases := []struct {
			col int
			v   relation.Value
		}{
			{0, relation.String("Montgomery")},
			{0, relation.String("")},
			{1, relation.String("HR")},
			{1, relation.String("")},
			{1, relation.String("Sales")},
			{2, relation.Int(7500)},
			{2, relation.Int(-42)},
			{2, relation.Int(0)},
			{2, relation.Int(pow10(width) - 1)},
			{2, relation.Int(-(pow10(width-1) - 1))},
		}
		for _, c := range cases {
			w, err := l.makeWord(nil, c.col, c.v)
			if err != nil {
				t.Fatalf("perColumn=%v makeWord(%d, %v): %v", perCol, c.col, c.v, err)
			}
			col, v, err := l.parseWord(string(w))
			if err != nil {
				t.Fatalf("perColumn=%v parseWord(%q): %v", perCol, w, err)
			}
			if col != c.col || !v.Equal(c.v) {
				t.Errorf("perColumn=%v parseWord(%q) = (%d, %v), want (%d, %v)", perCol, w, col, v, c.col, c.v)
			}
		}
	}
}

// TestLayoutRejectsWideValues: a value one byte past its width — an int one
// digit past it, either sign, or a string — or holding the padding symbol
// is refused, and a refused value wrote nothing past its word's value
// width into the buffer it was given, however much room the buffer had.
func TestLayoutRejectsWideValues(t *testing.T) {
	for _, perCol := range []bool{false, true} {
		l, err := newLayout(empSchema(), perCol)
		if err != nil {
			t.Fatal(err)
		}
		intWidth, nameWidth := l.valueWidthFor(2), l.valueWidthFor(0)
		cases := []struct {
			col     int
			v       relation.Value
			wantErr string
		}{
			{2, relation.Int(pow10(intWidth)), "too wide"},
			{2, relation.Int(-pow10(intWidth - 1)), "too wide"},
			{0, relation.String(strings.Repeat("x", nameWidth+1)), "too wide"},
			{0, relation.String("a#b"), "padding symbol"},
			{0, relation.String(strings.Repeat("#", nameWidth)), "padding symbol"},
		}
		for _, c := range cases {
			buf := bytes.Repeat([]byte{0xaa}, 2*l.wordLenFor(c.col))
			w, err := l.makeWord(buf, c.col, c.v)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("perColumn=%v makeWord(%d, %v) = (%q, %v), want an error mentioning %q", perCol, c.col, c.v, w, err, c.wantErr)
			}
			if slices.ContainsFunc(buf[l.valueWidthFor(c.col):], func(b byte) bool { return b != 0xaa }) {
				t.Errorf("perColumn=%v makeWord(%d, %v) wrote past the value width: %q", perCol, c.col, c.v, buf)
			}
		}
	}
}

func TestLayoutIDsAreFirstLetters(t *testing.T) {
	l, err := newLayout(empSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	// name -> 'N', dept -> 'D', salary -> 'S' as in the paper.
	want := []byte{'N', 'D', 'S'}
	if !bytes.Equal(l.ids, want) {
		t.Fatalf("ids = %q, want %q", l.ids, want)
	}
}

func TestLayoutIDCollisionFallback(t *testing.T) {
	s := relation.MustSchema("t",
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 5},
		relation.Column{Name: "status", Type: relation.TypeString, Width: 5},
		relation.Column{Name: "state", Type: relation.TypeString, Width: 5},
	)
	l, err := newLayout(s, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[byte]bool{}
	for _, id := range l.ids {
		if seen[id] {
			t.Fatalf("duplicate identifier byte %q in %q", id, l.ids)
		}
		if id == PadByte {
			t.Fatal("identifier collides with the padding symbol")
		}
		seen[id] = true
	}
}

func TestLayoutParseErrors(t *testing.T) {
	l, err := newLayout(empSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.parseWord("short"); err == nil {
		t.Fatal("short word parsed")
	}
	bad := bytes.Repeat([]byte{'x'}, l.wordLenFor(0))
	bad[len(bad)-1] = 0x00 // unknown id
	if _, _, err := l.parseWord(string(bad)); err == nil {
		t.Fatal("unknown identifier parsed")
	}
	// Garbage in an int column.
	w, err := l.makeWord(nil, 2, relation.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 'x'
	if _, _, err := l.parseWord(string(w)); err == nil {
		t.Fatal("non-numeric int word parsed")
	}
}

func TestWordLenExported(t *testing.T) {
	n, err := WordLen(empSchema())
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("WordLen = %d, want 11", n)
	}
}

func TestLayoutManyColumns(t *testing.T) {
	// 40 columns exercise the identifier-fallback path heavily.
	cols := make([]relation.Column, 40)
	for i := range cols {
		cols[i] = relation.Column{Name: string(rune('a')) + string(rune('a'+i%26)) + string(rune('a'+i/26)), Type: relation.TypeString, Width: 3}
	}
	s, err := relation.NewSchema("wide", cols...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLayout(s, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[byte]bool{}
	for _, id := range l.ids {
		if seen[id] {
			t.Fatalf("duplicate id byte across 40 columns")
		}
		seen[id] = true
	}
}
