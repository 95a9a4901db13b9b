package core

import (
	"bytes"
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

func TestLayoutParseWordInverts(t *testing.T) {
	l, err := newLayout(empSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		col int
		v   relation.Value
	}{
		{0, relation.String("Montgomery")},
		{0, relation.String("")},
		{1, relation.String("HR")},
		{2, relation.Int(7500)},
		{2, relation.Int(-42)},
		{2, relation.Int(0)},
	}
	for _, c := range cases {
		w, err := l.makeWord(nil, c.col, c.v)
		if err != nil {
			t.Fatalf("makeWord: %v", err)
		}
		col, v, err := l.parseWord(w)
		if err != nil {
			t.Fatalf("parseWord(%q): %v", w, err)
		}
		if col != c.col || !v.Equal(c.v) {
			t.Errorf("parseWord(%q) = (%d, %v), want (%d, %v)", w, col, v, c.col, c.v)
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

func TestLayoutRejectsWideValues(t *testing.T) {
	l, err := newLayout(empSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.makeWord(nil, 0, relation.String("ElevenChars")); err == nil {
		t.Fatal("over-wide value accepted")
	}
}

func TestLayoutParseErrors(t *testing.T) {
	l, err := newLayout(empSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.parseWord([]byte("short")); err == nil {
		t.Fatal("short word parsed")
	}
	bad := bytes.Repeat([]byte{'x'}, l.wordLenFor(0))
	bad[len(bad)-1] = 0x00 // unknown id
	if _, _, err := l.parseWord(bad); err == nil {
		t.Fatal("unknown identifier parsed")
	}
	// Garbage in an int column.
	w, err := l.makeWord(nil, 2, relation.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 'x'
	if _, _, err := l.parseWord(w); err == nil {
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
