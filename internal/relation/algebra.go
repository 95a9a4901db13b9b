package relation

import (
	"fmt"
	"strings"
)

// Pred is a predicate over tuples of a given schema. The paper's construction
// preserves exact selects only, so the predicate language is deliberately
// small: equality tests and conjunctions of them. Conjunctions are pushed
// down to the server's planner (internal/query), which intersects the
// per-conjunct position sets; client-side, And is the false-positive
// filter after decryption.
type Pred interface {
	// Eval reports whether the tuple satisfies the predicate.
	Eval(s *Schema, t Tuple) (bool, error)
	// Validate checks the predicate against the schema (columns exist,
	// types match).
	Validate(s *Schema) error
	// String renders the predicate in σ-notation.
	String() string
}

// Eq is the exact-select predicate σ_{Column = Value}.
type Eq struct {
	// Column is the attribute name.
	Column string
	// Value is the constant to compare against.
	Value Value
}

// Validate implements Pred.
func (e Eq) Validate(s *Schema) error {
	c, ok := s.Column(e.Column)
	if !ok {
		return fmt.Errorf("relation: predicate references unknown column %q in %q", e.Column, s.Name)
	}
	if c.Type != e.Value.Type() {
		return fmt.Errorf("relation: predicate on %q compares %s column to %s value",
			e.Column, c.Type, e.Value.Type())
	}
	if err := e.Value.CheckAgainst(c); err != nil {
		return fmt.Errorf("relation: predicate constant out of range: %w", err)
	}
	return nil
}

// Eval implements Pred.
func (e Eq) Eval(s *Schema, t Tuple) (bool, error) {
	i := s.ColumnIndex(e.Column)
	if i < 0 {
		return false, fmt.Errorf("relation: unknown column %q", e.Column)
	}
	return t[i].Equal(e.Value), nil
}

// String implements Pred.
func (e Eq) String() string {
	return fmt.Sprintf("σ_%s:%s", e.Column, e.Value.Encode())
}

// And is a conjunction of predicates. The homomorphism itself only handles
// a single Eq; a conjunctive query ships one token per conjunct and the
// server intersects their position sets. And is the plaintext-side mirror:
// the client re-evaluates it to filter checksum false positives.
type And struct {
	// Preds are the conjuncts; And is satisfied iff all of them are.
	Preds []Pred
}

// Validate implements Pred.
func (a And) Validate(s *Schema) error {
	if len(a.Preds) == 0 {
		return fmt.Errorf("relation: empty conjunction")
	}
	for _, p := range a.Preds {
		if err := p.Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// Eval implements Pred.
func (a And) Eval(s *Schema, t Tuple) (bool, error) {
	for _, p := range a.Preds {
		ok, err := p.Eval(s, t)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// String implements Pred.
func (a And) String() string {
	parts := make([]string, len(a.Preds))
	for i, p := range a.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Select evaluates σ_pred(t) and returns the matching tuples as a new
// table. The new table shares t's tuples rather than copying them —
// nothing writes a tuple once it is in a table — and its tuple list is
// sized by a first pass that counts the matches, so a select costs a
// fixed number of allocations whatever it keeps.
func Select(t *Table, pred Pred) (*Table, error) {
	if err := pred.Validate(t.Schema()); err != nil {
		return nil, err
	}
	n := 0
	for _, tp := range t.Tuples() {
		ok, err := pred.Eval(t.Schema(), tp)
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	out := &Table{schema: t.Schema(), tuples: make([]Tuple, 0, n)}
	for _, tp := range t.Tuples() {
		// The first pass evaluated every tuple without an error.
		if ok, _ := pred.Eval(t.Schema(), tp); ok {
			out.tuples = append(out.tuples, tp)
		}
	}
	return out, nil
}

// Project returns π_cols(t): a new table with only the named columns, in the
// order given. Duplicate tuples are retained (multiset semantics), matching
// SQL's SELECT without DISTINCT.
func Project(t *Table, cols ...string) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: projection needs at least one column")
	}
	idx := make([]int, len(cols))
	newCols := make([]Column, len(cols))
	for i, name := range cols {
		j := t.Schema().ColumnIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("relation: projection references unknown column %q", name)
		}
		idx[i] = j
		newCols[i] = t.Schema().Columns[j]
	}
	s, err := NewSchema(t.Schema().Name, newCols...)
	if err != nil {
		return nil, err
	}
	out := NewTable(s)
	for _, tp := range t.Tuples() {
		ntp := make(Tuple, len(idx))
		for i, j := range idx {
			ntp[i] = tp[j]
		}
		out.tuples = append(out.tuples, ntp)
	}
	return out, nil
}

// Intersect returns the multiset intersection of two tables over the same
// schema: the relational-algebra counterpart of the server's
// position-set intersection, and the client-side arm the conjunctive
// pushdown is measured against in internal/client's tests.
func Intersect(a, b *Table) (*Table, error) {
	if !a.Schema().Equal(b.Schema()) {
		return nil, fmt.Errorf("relation: intersect over different schemas %q and %q",
			a.Schema().Name, b.Schema().Name)
	}
	counts := make(map[string]int, b.Len())
	for _, tp := range b.Tuples() {
		counts[tp.Key()]++
	}
	out := NewTable(a.Schema())
	for _, tp := range a.Tuples() {
		k := tp.Key()
		if counts[k] > 0 {
			counts[k]--
			out.tuples = append(out.tuples, tp.Clone())
		}
	}
	return out, nil
}
