// Package core implements the paper's primary contribution (§3): a database
// privacy homomorphism preserving exact selects, built from the searchable
// encryption scheme of Song, Wagner and Perrig (internal/swp).
//
// The construction maps every tuple of a relation to a *document* — a set of
// fixed-length words, one per attribute. A word is the attribute value,
// padded with '#' to the width of the widest attribute, followed by a
// one-byte attribute identifier (needed for decryption). For the paper's
// running example
//
//	Emp(name:string[9], dept:string[5], salary:int)
//	⟨name:"Montgomery", dept:"HR", sal:7500⟩
//	  ↦ {"MontgomeryN", "HR########D", "7500######S"}
//
// the exact select σ_name:"Montgomery" becomes the search
// ϕ_"MontgomeryN", evaluated by the server over the SWP cipherwords.
// SWP searches admit false positives (probability 2^(−8m) per word slot);
// the client filters them by re-evaluating the plaintext predicate on the
// decrypted result, as §3 prescribes.
package core

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/relation"
)

// PadByte is the padding symbol '#' from the paper. Attribute values must
// not contain it; EncryptTable rejects tables that do.
const PadByte = '#'

// idWidth is the byte width of the attribute identifier appended to every
// word. One byte suffices for up to 255 columns.
const idWidth = 1

// layout precomputes the word geometry for a schema: the word length per
// column and the per-column identifier bytes. Two modes exist:
//
//   - fixed (the paper's §3 default): one global word length, "the length
//     of the longest attribute value plus the length of an attribute
//     identifier". Cipherword lengths reveal nothing.
//   - per-column (the "attributes of variable length" optimisation the
//     paper defers to its full version): each column's words are only as
//     wide as that column needs. Ciphertext shrinks, but cipherword
//     lengths now reveal which column a word belongs to (and only that —
//     values are still padded to the full column width).
type layout struct {
	schema     *relation.Schema
	perColumn  bool
	valueWidth int      // widest encoded attribute value (fixed mode)
	ids        []byte   // column index -> identifier byte
	colOf      [256]int // identifier byte -> column index + 1; 0: no column
}

// newLayout derives the word layout from a schema. Identifier bytes are
// chosen deterministically: the uppercased first letter of the column name
// when free (matching the paper's "N", "D", "S" for name, dept, salary),
// otherwise the first free byte. The assignment depends only on the schema,
// so client and decryptor always agree; the server never needs it.
func newLayout(s *relation.Schema, perColumn bool) (*layout, error) {
	if s.NumColumns() > 255 {
		return nil, fmt.Errorf("core: schema %q has %d columns; at most 255 supported", s.Name, s.NumColumns())
	}
	l := &layout{schema: s, perColumn: perColumn}
	for _, c := range s.Columns {
		if w := c.EncodedWidth(); w > l.valueWidth {
			l.valueWidth = w
		}
	}
	// The SWP scheme needs words of at least 2 bytes; a 1-byte value width
	// already gives wordLen = 2.
	if l.valueWidth < 1 {
		return nil, fmt.Errorf("core: schema %q has zero value width", s.Name)
	}
	l.ids = make([]byte, s.NumColumns())
	for i, c := range s.Columns {
		id, err := l.pickID(c.Name)
		if err != nil {
			return nil, err
		}
		l.ids[i] = id
		l.colOf[id] = i + 1
	}
	return l, nil
}

// valueWidthFor returns the padded value width of a column under the
// layout mode.
func (l *layout) valueWidthFor(col int) int {
	if l.perColumn {
		return l.schema.Columns[col].EncodedWidth()
	}
	return l.valueWidth
}

// wordLenFor returns the word length of a column under the layout mode.
func (l *layout) wordLenFor(col int) int {
	return l.valueWidthFor(col) + idWidth
}

// wordLengths returns the sorted distinct word lengths the layout produces.
func (l *layout) wordLengths() []int {
	seen := map[int]bool{}
	var out []int
	for col := range l.schema.Columns {
		n := l.wordLenFor(col)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// pickID chooses the identifier byte for a column.
func (l *layout) pickID(name string) (byte, error) {
	if len(name) > 0 {
		first := name[0]
		if first >= 'a' && first <= 'z' {
			first -= 'a' - 'A'
		}
		if l.colOf[first] == 0 && first != PadByte {
			return first, nil
		}
	}
	for b := 0; b < 256; b++ {
		id := byte(b)
		if id == PadByte {
			continue
		}
		if l.colOf[id] == 0 {
			return id, nil
		}
	}
	return 0, fmt.Errorf("core: no free identifier byte for column %q", name)
}

// makeWord builds the word value|padding|id for column col, padded to the
// column's word length under the layout mode. The word is written into buf
// when buf is wide enough to hold it and into a fresh slice otherwise. The
// value — a string's bytes, an int's decimal digits — is written in place,
// capped at the value width: one too wide spills into a fresh array, never
// into the padding, the identifier or buf beyond the word, and is refused.
func (l *layout) makeWord(buf []byte, col int, v relation.Value) ([]byte, error) {
	width := l.valueWidthFor(col)
	if len(buf) < width+idWidth {
		buf = make([]byte, width+idWidth)
	}
	w := buf[:width+idWidth]
	enc := w[:0:width]
	if v.Type() == relation.TypeInt {
		enc = strconv.AppendInt(enc, v.Integer(), 10)
	} else {
		enc = append(enc, v.Str()...)
	}
	if len(enc) > width {
		return nil, fmt.Errorf("core: value %s too wide for layout (%d > %d)", v, len(enc), width)
	}
	for _, b := range enc {
		if b == PadByte {
			return nil, fmt.Errorf("core: value %s contains the padding symbol %q", v, PadByte)
		}
	}
	for i := len(enc); i < width; i++ {
		w[i] = PadByte
	}
	w[width] = l.ids[col]
	return w, nil
}

// parseWord inverts makeWord: it extracts the column index and value from a
// decrypted word. A string value is a substring of w, sharing its bytes.
func (l *layout) parseWord(w string) (col int, v relation.Value, err error) {
	if len(w) < 2 {
		return 0, relation.Value{}, fmt.Errorf("core: word of %d bytes too short", len(w))
	}
	id := w[len(w)-idWidth]
	col = l.colOf[id] - 1
	if col < 0 {
		return 0, relation.Value{}, fmt.Errorf("core: unknown attribute identifier %#x", id)
	}
	if len(w) != l.wordLenFor(col) {
		return 0, relation.Value{}, fmt.Errorf("core: word for column %q has %d bytes, layout expects %d",
			l.schema.Columns[col].Name, len(w), l.wordLenFor(col))
	}
	end := len(w) - idWidth
	for end > 0 && w[end-1] == PadByte {
		end--
	}
	switch c := l.schema.Columns[col]; c.Type {
	case relation.TypeString:
		v = relation.String(w[:end])
	case relation.TypeInt:
		i, perr := strconv.ParseInt(w[:end], 10, 64)
		if perr != nil {
			return 0, relation.Value{}, fmt.Errorf("core: word for int column %q holds %q: %w", c.Name, w[:end], perr)
		}
		v = relation.Int(i)
	default:
		return 0, relation.Value{}, fmt.Errorf("core: column %q has unsupported type", c.Name)
	}
	return col, v, nil
}

// WordLen returns the global fixed-mode word length the layout derives for
// a schema, exposed for tests and capacity planning.
func WordLen(s *relation.Schema) (int, error) {
	l, err := newLayout(s, false)
	if err != nil {
		return 0, err
	}
	return l.valueWidth + idWidth, nil
}
