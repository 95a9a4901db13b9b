// Package indexed implements the family of outsourced-database encryption
// schemes the paper attacks in §1: "every tuple is encrypted with a secure
// cipher first, then weakly encrypted attributes are attached to the
// ciphertext". The strong cipher is AES-GCM over the binary-encoded tuple;
// the weak encryptions ("index labels") are produced by a pluggable Labeler.
//
// Three labelers in the sibling packages instantiate the framework:
//
//   - schemes/bucket:  interval bucketization with a secret label
//     permutation — Hacıgümüş et al., SIGMOD'02 (paper reference [4]).
//   - schemes/damiani: deterministic keyed-hash buckets — Damiani et al.,
//     CCS'03 (paper reference [3]).
//   - schemes/detph:   injective deterministic labels (worst-case
//     comparator; the full equality pattern leaks).
//
// All of them satisfy Definition 1.1 — they are database PHs for exact
// selects, with false positives filtered client-side — and all of them fall
// to the distinguisher of §1 (internal/attacks), because their labels are
// deterministic functions of the attribute value.
package indexed

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
)

// Labeler computes the weak index label attached to the strong ciphertext
// for one attribute value. Labels are deterministic per (scheme key,
// column, value) — that determinism is exactly what the server exploits to
// answer queries, and what the paper's adversary exploits to win the
// indistinguishability game.
type Labeler interface {
	// Label maps a column value to its index label.
	Label(colIdx int, col relation.Column, v relation.Value) ([]byte, error)
}

// Scheme is an indexed outsourcing scheme over a fixed relation schema. It
// implements ph.Scheme.
type Scheme struct {
	id      string
	schema  *relation.Schema
	sealer  *crypto.Sealer
	labeler Labeler
}

// New constructs an indexed scheme. The scheme ID must have been registered
// with ph.RegisterEvaluator(id, indexed.Evaluate) by the instantiating
// package.
func New(id string, master crypto.Key, schema *relation.Schema, labeler Labeler) (*Scheme, error) {
	sealer, err := crypto.NewSealer(crypto.NewPRF(master).DeriveKey("indexed/seal/"+id, nil))
	if err != nil {
		return nil, err
	}
	return &Scheme{id: id, schema: schema, sealer: sealer, labeler: labeler}, nil
}

// Name implements ph.Scheme.
func (s *Scheme) Name() string { return s.id }

// Schema implements ph.Scheme.
func (s *Scheme) Schema() *relation.Schema { return s.schema }

// EncryptTable implements E: each tuple is sealed whole with the strong
// cipher and annotated with one weak label per column. Tuples are emitted in
// random order.
func (s *Scheme) EncryptTable(t *relation.Table) (*ph.EncryptedTable, error) {
	if !t.Schema().Equal(s.schema) {
		return nil, fmt.Errorf("%s: table schema %q does not match instance schema %q",
			s.id, t.Schema().Name, s.schema.Name)
	}
	et := &ph.EncryptedTable{SchemeID: s.id, Tuples: make([]ph.EncryptedTuple, 0, t.Len())}
	order, err := randomPerm(t.Len())
	if err != nil {
		return nil, err
	}
	for _, ti := range order {
		tp := t.Tuple(ti)
		blob, err := s.sealer.Seal(relation.EncodeTuple(tp))
		if err != nil {
			return nil, fmt.Errorf("%s: sealing tuple: %w", s.id, err)
		}
		words := make([][]byte, len(tp))
		for col, v := range tp {
			lbl, err := s.labeler.Label(col, s.schema.Columns[col], v)
			if err != nil {
				return nil, fmt.Errorf("%s: labelling column %q: %w", s.id, s.schema.Columns[col].Name, err)
			}
			words[col] = lbl
		}
		id := make([]byte, 16)
		if _, err := rand.Read(id); err != nil {
			return nil, fmt.Errorf("%s: drawing tuple id: %w", s.id, err)
		}
		et.Tuples = append(et.Tuples, ph.EncryptedTuple{ID: id, Blob: blob, Words: words})
	}
	return et, nil
}

// EncryptQuery implements Eq: the token is the column index plus the label
// of the queried value.
func (s *Scheme) EncryptQuery(q relation.Eq) (*ph.EncryptedQuery, error) {
	if err := q.Validate(s.schema); err != nil {
		return nil, err
	}
	col := s.schema.ColumnIndex(q.Column)
	lbl, err := s.labeler.Label(col, s.schema.Columns[col], q.Value)
	if err != nil {
		return nil, err
	}
	token := make([]byte, 2+len(lbl))
	binary.BigEndian.PutUint16(token, uint16(col))
	copy(token[2:], lbl)
	return &ph.EncryptedQuery{SchemeID: s.id, Token: token}, nil
}

// DecryptTable implements D on whole tables.
func (s *Scheme) DecryptTable(ct *ph.EncryptedTable) (*relation.Table, error) {
	if ct.SchemeID != s.id {
		return nil, fmt.Errorf("%s: cannot decrypt table of scheme %q", s.id, ct.SchemeID)
	}
	t := relation.NewTable(s.schema)
	for i, etp := range ct.Tuples {
		tp, err := s.openTuple(etp)
		if err != nil {
			return nil, fmt.Errorf("%s: decrypting tuple %d: %w", s.id, i, err)
		}
		if err := t.Adopt(tp); err != nil { // tp is freshly decoded: no copy
			return nil, err
		}
	}
	return t, nil
}

// DecryptResult opens the returned tuples and filters the false positives
// that coarse labels necessarily produce (several plaintext values share a
// bucket).
func (s *Scheme) DecryptResult(q relation.Eq, r *ph.Result) (*relation.Table, error) {
	t := relation.NewTable(s.schema)
	for i, etp := range r.Tuples {
		tp, err := s.openTuple(etp)
		if err != nil {
			return nil, fmt.Errorf("%s: decrypting result tuple %d: %w", s.id, i, err)
		}
		ok, err := q.Eval(s.schema, tp)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // bucket collision; drop
		}
		if err := t.Adopt(tp); err != nil { // tp is freshly decoded: no copy
			return nil, err
		}
	}
	return t, nil
}

// openTuple decrypts the strong ciphertext back into a tuple.
func (s *Scheme) openTuple(etp ph.EncryptedTuple) (relation.Tuple, error) {
	pt, err := s.sealer.Open(etp.Blob)
	if err != nil {
		return nil, err
	}
	return relation.DecodeTuple(pt)
}

// Evaluate is the shared key-free server-side ψ for all indexed schemes: a
// tuple matches when its label for the queried column equals the token's
// label.
func Evaluate(et *ph.EncryptedTable, q *ph.EncryptedQuery) (*ph.Result, error) {
	if len(q.Token) < 2 {
		return nil, fmt.Errorf("indexed: query token too short (%d bytes)", len(q.Token))
	}
	col := int(binary.BigEndian.Uint16(q.Token))
	want := q.Token[2:]
	var positions []int
	for i, etp := range et.Tuples {
		if col >= len(etp.Words) {
			return nil, fmt.Errorf("indexed: token column %d out of range for tuple with %d labels", col, len(etp.Words))
		}
		if bytesEqual(etp.Words[col], want) {
			positions = append(positions, i)
		}
	}
	return ph.SelectPositions(et, positions), nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomPerm draws a uniformly random permutation of [0, n) from
// crypto/rand.
func randomPerm(n int) ([]int, error) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		jBig, err := rand.Int(rand.Reader, big.NewInt(int64(i+1)))
		if err != nil {
			return nil, fmt.Errorf("indexed: drawing permutation: %w", err)
		}
		j := int(jBig.Int64())
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm, nil
}
