// Package sqlmini parses the SQL fragment the paper's construction can
// outsource: exact selects, optionally with projection and conjunction.
//
//	SELECT * FROM patients WHERE hospital = 1;
//	SELECT name, salary FROM emp WHERE dept = 'HR' AND salary = 7500;
//
// The grammar is deliberately exactly the paper's query class — the
// homomorphism preserves single-attribute exact selects. A conjunction
// is executed as one encrypted token per conjunct: the client pushes all
// of them down as one plan of a single read request and the server's
// selectivity-ordered planner (internal/query) intersects the
// scheme-opaque position sets where the data lives, so only tuples
// satisfying the whole conjunction cross the wire. Projection is applied
// after decryption.
// Range predicates, joins, OR and aggregation are rejected at parse time
// with a pointer to the paper's scope (§3, "a privacy homomorphism
// preserving exact selects").
package sqlmini

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Query is the parsed form of a supported statement.
type Query struct {
	// Projection lists the selected columns; nil means '*'.
	Projection []string
	// Table is the relation name after FROM.
	Table string
	// Where holds the conjunction of equality predicates; it may be
	// empty (full-table select, served by decrypting the whole table).
	Where []Condition
}

// Condition is one equality predicate column = literal.
type Condition struct {
	// Column is the attribute name.
	Column string
	// StrVal holds the literal for quoted strings.
	StrVal string
	// IntVal holds the literal for integers.
	IntVal int64
	// IsString distinguishes the two literal kinds.
	IsString bool
}

// Bind type-checks the condition against a schema and converts it into a
// relation predicate. Integer literals may bind to string columns (the
// digits taken verbatim) but not vice versa.
func (c Condition) Bind(s *relation.Schema) (relation.Eq, error) {
	col, ok := s.Column(c.Column)
	if !ok {
		return relation.Eq{}, fmt.Errorf("sqlmini: unknown column %q in table %q", c.Column, s.Name)
	}
	var v relation.Value
	switch {
	case c.IsString && col.Type == relation.TypeString:
		v = relation.String(c.StrVal)
	case !c.IsString && col.Type == relation.TypeInt:
		v = relation.Int(c.IntVal)
	case !c.IsString && col.Type == relation.TypeString:
		v = relation.String(strconv.FormatInt(c.IntVal, 10))
	default:
		return relation.Eq{}, fmt.Errorf("sqlmini: string literal %q compared to int column %q", c.StrVal, c.Column)
	}
	eq := relation.Eq{Column: c.Column, Value: v}
	if err := eq.Validate(s); err != nil {
		return relation.Eq{}, err
	}
	return eq, nil
}

// String renders the query back to SQL.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Projection == nil {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(q.Projection, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(q.Table)
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			if c.IsString {
				fmt.Fprintf(&b, "%s = '%s'", c.Column, c.StrVal)
			} else {
				fmt.Fprintf(&b, "%s = %d", c.Column, c.IntVal)
			}
		}
	}
	b.WriteString(";")
	return b.String()
}

// tokenKind enumerates lexer token kinds.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokStar
	tokComma
	tokEquals
	tokSemicolon
	tokLess
	tokGreater
	tokOther
)

// token is one lexed token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex tokenises the input.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '=':
			toks = append(toks, token{tokEquals, "=", i})
			i++
		case c == ';':
			toks = append(toks, token{tokSemicolon, ";", i})
			i++
		case c == '<':
			toks = append(toks, token{tokLess, "<", i})
			i++
		case c == '>':
			toks = append(toks, token{tokGreater, ">", i})
			i++
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("sqlmini: unterminated string literal at offset %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : j], i})
			i = j + 1
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(input) && input[j] >= '0' && input[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case isIdentByte(c):
			j := i + 1
			for j < len(input) && isIdentByte(input[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// parser walks the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// expectKeyword consumes an identifier matching the keyword
// case-insensitively.
func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("sqlmini: expected %s at offset %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

// isKeyword reports whether the token is the given keyword.
func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// Parse parses one statement. Unsupported SQL (ranges, joins, aggregates,
// OR) produces a descriptive error rather than silently wrong results.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	// Projection list.
	if p.peek().kind == tokStar {
		p.next()
	} else {
		for {
			t := p.next()
			if t.kind != tokIdent || isKeyword(t, "FROM") || isKeyword(t, "WHERE") {
				return nil, fmt.Errorf("sqlmini: expected column name at offset %d, got %q", t.pos, t.text)
			}
			if isAggregate(t.text) && p.peek().kind == tokOther {
				return nil, fmt.Errorf("sqlmini: aggregates are not supported (exact selects only)")
			}
			q.Projection = append(q.Projection, t.text)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlmini: expected table name at offset %d, got %q", t.pos, t.text)
	}
	q.Table = t.text
	// A second table (comma or JOIN) is out of scope.
	if p.peek().kind == tokComma || isKeyword(p.peek(), "JOIN") {
		return nil, fmt.Errorf("sqlmini: joins are not supported — the construction preserves exact selects on one relation (paper §3)")
	}
	// Optional WHERE clause.
	if isKeyword(p.peek(), "WHERE") {
		p.next()
		for {
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, cond)
			if !isKeyword(p.peek(), "AND") {
				break
			}
			p.next()
		}
		if isKeyword(p.peek(), "OR") {
			return nil, fmt.Errorf("sqlmini: OR is not supported — only conjunctions of exact selects")
		}
	}
	if p.peek().kind == tokSemicolon {
		p.next()
	}
	if p.peek().kind != tokEOF {
		t := p.peek()
		return nil, fmt.Errorf("sqlmini: unexpected trailing input %q at offset %d", t.text, t.pos)
	}
	return q, nil
}

// parseCondition parses one `column = literal`.
func (p *parser) parseCondition() (Condition, error) {
	t := p.next()
	if t.kind != tokIdent {
		return Condition{}, fmt.Errorf("sqlmini: expected column name at offset %d, got %q", t.pos, t.text)
	}
	col := t.text
	op := p.next()
	switch op.kind {
	case tokEquals:
		// supported
	case tokLess, tokGreater:
		return Condition{}, fmt.Errorf("sqlmini: range predicates are not supported — the construction preserves exact selects only (paper §3)")
	default:
		return Condition{}, fmt.Errorf("sqlmini: expected '=' after column %q at offset %d, got %q", col, op.pos, op.text)
	}
	lit := p.next()
	switch lit.kind {
	case tokString:
		return Condition{Column: col, StrVal: lit.text, IsString: true}, nil
	case tokNumber:
		n, err := strconv.ParseInt(lit.text, 10, 64)
		if err != nil {
			return Condition{}, fmt.Errorf("sqlmini: invalid integer literal %q at offset %d: %w", lit.text, lit.pos, err)
		}
		return Condition{Column: col, IntVal: n}, nil
	default:
		return Condition{}, fmt.Errorf("sqlmini: expected literal after %q = at offset %d, got %q", col, lit.pos, lit.text)
	}
}

// isAggregate recognises common aggregate function names for better error
// messages.
func isAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}
