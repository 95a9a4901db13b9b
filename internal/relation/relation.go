// Package relation implements the relational substrate used throughout the
// reproduction: typed schemas, tuples, tables and the fragment of the
// relational algebra the paper's construction supports (exact selects and
// projections).
//
// The paper (Evdokimov et al., ICDE 2006) models a relation as a set of
// tuples over a fixed schema with fixed-width attributes, e.g.
//
//	Emp(name:string[9], dept:string[5], salary:int)
//
// Fixed widths matter: the privacy homomorphism in internal/core derives its
// global word length from the widest attribute, so Schema records a byte
// width for every column. Integer columns are rendered as decimal strings of
// at most Width digits (plus an optional leading '-').
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Type enumerates the attribute types supported by the substrate. The paper
// only needs strings and integers; everything else (dates, floats) can be
// encoded into these by the application.
type Type uint8

// Supported attribute types.
const (
	// TypeInvalid is the zero Type and never valid in a schema.
	TypeInvalid Type = iota
	// TypeString is a byte string of bounded length.
	TypeString
	// TypeInt is a signed 64-bit integer rendered in decimal.
	TypeInt
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// Column describes one attribute of a schema.
type Column struct {
	// Name is the attribute name, unique within a schema.
	Name string
	// Type is the attribute type.
	Type Type
	// Width is the maximum encoded length in bytes. For TypeString it is
	// the maximum string length; for TypeInt it is the maximum number of
	// decimal digits (a leading '-' is accounted for separately).
	Width int
}

// EncodedWidth returns the maximum number of bytes an encoded value of this
// column can occupy. For integers this includes room for a sign.
func (c Column) EncodedWidth() int {
	if c.Type == TypeInt {
		return c.Width + 1 // optional leading '-'
	}
	return c.Width
}

// String renders the column as "name:type[width]".
func (c Column) String() string {
	return fmt.Sprintf("%s:%s[%d]", c.Name, c.Type, c.Width)
}

// Schema is an ordered list of named, typed, fixed-width columns.
type Schema struct {
	// Name is the relation name.
	Name string
	// Columns holds the attributes in declaration order.
	Columns []Column

	byName map[string]int
}

// NewSchema builds a schema and validates it: the name must be non-empty,
// there must be at least one column, column names must be unique and
// non-empty, types valid, and widths positive.
func NewSchema(name string, cols ...Column) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema name must not be empty")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: schema %q has no columns", name)
	}
	s := &Schema{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: schema %q: column %d has empty name", name, i)
		}
		if c.Type != TypeString && c.Type != TypeInt {
			return nil, fmt.Errorf("relation: schema %q: column %q has invalid type", name, c.Name)
		}
		if c.Width <= 0 {
			return nil, fmt.Errorf("relation: schema %q: column %q has non-positive width %d", name, c.Name, c.Width)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation: schema %q: duplicate column %q", name, c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// statically known schemas in tests and examples.
func MustSchema(name string, cols ...Column) *Schema {
	s, err := NewSchema(name, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the position of the named column, or -1 if absent.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column and whether it exists.
func (s *Schema) Column(name string) (Column, bool) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return s.Columns[i], true
}

// NumColumns returns the number of attributes.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// Equal reports whether two schemas have the same name and identical column
// lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Name != o.Name || len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "Name(col:type[w], ...)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.String()
	}
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(parts, ", "))
}

// Value is a dynamically typed attribute value. The zero Value is invalid.
type Value struct {
	typ Type
	s   string
	i   int64
}

// String constructs a string value.
func String(s string) Value { return Value{typ: TypeString, s: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{typ: TypeInt, i: i} }

// Type returns the value's type.
func (v Value) Type() Type { return v.typ }

// Str returns the string payload; it is only meaningful for TypeString.
func (v Value) Str() string { return v.s }

// Integer returns the integer payload; it is only meaningful for TypeInt.
func (v Value) Integer() int64 { return v.i }

// Encode renders the value as the canonical byte string used by every scheme
// in this repository: the raw bytes for strings, the decimal representation
// for integers.
func (v Value) Encode() string {
	switch v.typ {
	case TypeString:
		return v.s
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return ""
	}
}

// Equal reports whether two values have the same type and payload.
func (v Value) Equal(o Value) bool {
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case TypeString:
		return v.s == o.s
	case TypeInt:
		return v.i == o.i
	default:
		return true
	}
}

// Less imposes a total order on values of the same type (strings
// lexicographically, integers numerically). Values of different types order
// by type tag; this is only used for canonicalisation.
func (v Value) Less(o Value) bool {
	if v.typ != o.typ {
		return v.typ < o.typ
	}
	switch v.typ {
	case TypeString:
		return v.s < o.s
	case TypeInt:
		return v.i < o.i
	default:
		return false
	}
}

// String renders the value for human consumption.
func (v Value) String() string {
	switch v.typ {
	case TypeString:
		return strconv.Quote(v.s)
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return "<invalid>"
	}
}

// CheckAgainst validates the value against a column: the types must match
// and the encoded form must fit the column width.
func (v Value) CheckAgainst(c Column) error {
	if v.typ != c.Type {
		return fmt.Errorf("relation: column %q expects %s, got %s", c.Name, c.Type, v.typ)
	}
	n := len(v.s)
	if v.typ == TypeInt {
		n = decimalLen(v.i)
	}
	if n > c.EncodedWidth() {
		return fmt.Errorf("relation: value %s overflows column %s (encoded %d bytes, max %d)",
			v, c, n, c.EncodedWidth())
	}
	return nil
}

// decimalLen is len(strconv.FormatInt(i, 10)), counted rather than
// formatted: Table.Insert checks every value it stores.
func decimalLen(i int64) int {
	n, u := 1, uint64(i)
	if i < 0 {
		n, u = 2, -u // -u is |i| even for math.MinInt64
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// Tuple is an ordered list of values matching a schema's columns.
type Tuple []Value

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key returns a canonical string encoding of the tuple, suitable as a map
// key. Fields are length-prefixed so the encoding is injective.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		enc := v.Encode()
		fmt.Fprintf(&b, "%d:%d:%s;", v.typ, len(enc), enc)
	}
	return b.String()
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Table is a multiset of tuples over a schema. The paper treats relations as
// sets; we keep insertion order for reproducibility but compare tables as
// multisets (see Equal).
type Table struct {
	schema *Schema
	tuples []Tuple
}

// NewTable creates an empty table over the schema.
func NewTable(s *Schema) *Table {
	return &Table{schema: s}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of tuples.
func (t *Table) Len() int { return len(t.tuples) }

// Tuple returns the i-th tuple in insertion order.
func (t *Table) Tuple(i int) Tuple { return t.tuples[i] }

// Tuples returns the backing slice of tuples. Callers must not mutate it.
func (t *Table) Tuples() []Tuple { return t.tuples }

// Insert validates the tuple against the schema and appends a copy of it.
func (t *Table) Insert(tp Tuple) error {
	return t.Adopt(tp.Clone())
}

// Adopt validates the tuple against the schema and appends it as it is,
// without a copy: the table takes ownership, and the caller must not
// modify tp afterwards. A decoder that cuts its tuples from one slab of
// values adds them this way.
func (t *Table) Adopt(tp Tuple) error {
	if len(tp) != len(t.schema.Columns) {
		return fmt.Errorf("relation: table %q: tuple has %d values, schema has %d columns",
			t.schema.Name, len(tp), len(t.schema.Columns))
	}
	for i, v := range tp {
		if err := v.CheckAgainst(t.schema.Columns[i]); err != nil {
			return fmt.Errorf("relation: table %q: %w", t.schema.Name, err)
		}
	}
	t.tuples = append(t.tuples, tp)
	return nil
}

// Grow reserves room for n more tuples, so that adding them does not
// reallocate the table's tuple list.
func (t *Table) Grow(n int) {
	t.tuples = slices.Grow(t.tuples, n)
}

// MustInsert inserts values, panicking on validation failure. Intended for
// tests and examples with statically known data.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{schema: t.schema, tuples: make([]Tuple, len(t.tuples))}
	for i, tp := range t.tuples {
		out.tuples[i] = tp.Clone()
	}
	return out
}

// Equal reports whether two tables have equal schemas and the same multiset
// of tuples, irrespective of order.
func (t *Table) Equal(o *Table) bool {
	if !t.schema.Equal(o.schema) || len(t.tuples) != len(o.tuples) {
		return false
	}
	counts := make(map[string]int, len(t.tuples))
	for _, tp := range t.tuples {
		counts[tp.Key()]++
	}
	for _, tp := range o.tuples {
		counts[tp.Key()]--
		if counts[tp.Key()] < 0 {
			return false
		}
	}
	return true
}

// Sorted returns a copy of the table with tuples in canonical order. Useful
// for deterministic output in examples and goldens.
func (t *Table) Sorted() *Table {
	out := t.Clone()
	sort.Slice(out.tuples, func(i, j int) bool {
		a, b := out.tuples[i], out.tuples[j]
		for k := range a {
			if !a[k].Equal(b[k]) {
				return a[k].Less(b[k])
			}
		}
		return false
	})
	return out
}

// String renders the table with a header row, one tuple per line.
func (t *Table) String() string {
	var b strings.Builder
	names := make([]string, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		names[i] = c.Name
	}
	b.WriteString(strings.Join(names, " | "))
	b.WriteByte('\n')
	for _, tp := range t.tuples {
		parts := make([]string, len(tp))
		for i, v := range tp {
			parts[i] = v.Encode()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}
