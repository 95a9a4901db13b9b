// Package gohph is the second instantiation of the paper's §3 construction,
// exercising its generality claim: "One such scheme has been proposed by
// Song et al. [...] **but others can be used instead**." Here the
// searchable-encryption building block is Goh's Z-IDX (Eu-Jin Goh, "Secure
// Indexes", ePrint 2003/216): every tuple is sealed with a strong cipher
// and accompanied by a per-document Bloom filter of PRF-tagged words.
//
// For word W the client derives the codeword x = PRF_code(W); the trapdoor
// *is* x. Per document the k filter positions of W are PRF_x(docID ‖ i),
// so the server — holding x — recomputes them and tests the filter, while
// filters of documents not containing W reveal nothing about W (positions
// are salted by the document ID). Like SWP, membership tests admit false
// positives (the classic Bloom rate (1 − e^(−kn/m))^k); the client filters
// them, exactly as the paper prescribes for SWP.
//
// Word layout reuses the construction's convention: encoded value followed
// by the one-byte attribute identifier. No padding is needed — Bloom tags
// hash words of any length — which makes gohph also an interesting
// geometry contrast to internal/core.
package gohph

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"

	"repro/internal/bloom"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
)

// SchemeID is the evaluator-registry name of the Goh instantiation.
const SchemeID = "goh-ph"

// Options tunes the scheme.
type Options struct {
	// FPRate is the target per-document false-positive rate of the Bloom
	// filter. Zero selects DefaultFPRate.
	FPRate float64
}

// DefaultFPRate dimensions the per-tuple filters for one false tuple per
// ~65k membership tests, matching the SWP default m=2 checksum.
const DefaultFPRate = 1.0 / 65536

// docIDLen is the per-tuple document identifier length.
const docIDLen = 16

// codewordLen is the byte length of word codewords (= trapdoors).
const codewordLen = crypto.KeySize

// Scheme implements ph.Scheme with Goh's secure indexes.
type Scheme struct {
	schema *relation.Schema
	ids    []byte // column -> identifier byte (appended to words)
	sealer *crypto.Sealer
	code   *crypto.PRF // codeword PRF over words
	m      uint32      // filter bits
	k      int         // hash functions
}

// New derives an instance for the schema from a master key.
func New(master crypto.Key, schema *relation.Schema, opts Options) (*Scheme, error) {
	fp := opts.FPRate
	if fp == 0 {
		fp = DefaultFPRate
	}
	m, k, err := bloom.OptimalParams(schema.NumColumns(), fp)
	if err != nil {
		return nil, fmt.Errorf("gohph: %w", err)
	}
	if schema.NumColumns() > 255 {
		return nil, fmt.Errorf("gohph: schema %q has %d columns; at most 255 supported", schema.Name, schema.NumColumns())
	}
	root := crypto.NewPRF(master)
	sealer, err := crypto.NewSealer(root.DeriveKey("gohph/seal", nil))
	if err != nil {
		return nil, err
	}
	s := &Scheme{
		schema: schema,
		ids:    make([]byte, schema.NumColumns()),
		sealer: sealer,
		code:   crypto.NewPRF(root.DeriveKey("gohph/code", nil)),
		m:      m,
		k:      k,
	}
	for i := range schema.Columns {
		s.ids[i] = byte(i)
	}
	return s, nil
}

// Name implements ph.Scheme.
func (s *Scheme) Name() string { return SchemeID }

// Schema implements ph.Scheme.
func (s *Scheme) Schema() *relation.Schema { return s.schema }

// FilterParams returns the public Bloom geometry (bits, hash functions).
func (s *Scheme) FilterParams() (m uint32, k int) { return s.m, s.k }

// codeword derives x = PRF_code(value ‖ attr-id) for a column value.
func (s *Scheme) codeword(col int, v relation.Value) []byte {
	return s.code.SumStrings(codewordLen, []byte(v.Encode()), s.ids[col:col+1])
}

// positions computes the k filter positions of a codeword in a document.
// It is a package-level function of (codeword, docID) only, because the
// server must recompute it from a trapdoor.
func positions(codeword, docID []byte, m uint32, k int) []uint32 {
	prf := crypto.NewPRF(crypto.KeyFromBytes(codeword))
	out := make([]uint32, k)
	var idx [4]byte
	for i := 0; i < k; i++ {
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		h := prf.SumStrings(4, docID, idx[:])
		out[i] = binary.BigEndian.Uint32(h) % m
	}
	return out
}

// EncryptTable implements E: seal each tuple, build its salted Bloom index,
// emit in random order.
func (s *Scheme) EncryptTable(t *relation.Table) (*ph.EncryptedTable, error) {
	if !t.Schema().Equal(s.schema) {
		return nil, fmt.Errorf("gohph: table schema %q does not match instance schema %q",
			t.Schema().Name, s.schema.Name)
	}
	et := &ph.EncryptedTable{
		SchemeID: SchemeID,
		Meta:     encodeMeta(s.m, s.k),
		Tuples:   make([]ph.EncryptedTuple, 0, t.Len()),
	}
	order, err := randomPerm(t.Len())
	if err != nil {
		return nil, err
	}
	for _, ti := range order {
		etp, err := s.encryptTuple(t.Tuple(ti))
		if err != nil {
			return nil, err
		}
		et.Tuples = append(et.Tuples, etp)
	}
	return et, nil
}

// encryptTuple seals one tuple and builds its index filter.
func (s *Scheme) encryptTuple(tp relation.Tuple) (ph.EncryptedTuple, error) {
	docID := make([]byte, docIDLen)
	if _, err := rand.Read(docID); err != nil {
		return ph.EncryptedTuple{}, fmt.Errorf("gohph: drawing document id: %w", err)
	}
	blob, err := s.sealer.Seal(relation.EncodeTuple(tp))
	if err != nil {
		return ph.EncryptedTuple{}, fmt.Errorf("gohph: sealing tuple: %w", err)
	}
	filter, err := bloom.New(s.m)
	if err != nil {
		return ph.EncryptedTuple{}, err
	}
	for col, v := range tp {
		x := s.codeword(col, v)
		for _, pos := range positions(x, docID, s.m, s.k) {
			filter.Set(pos)
		}
	}
	return ph.EncryptedTuple{ID: docID, Blob: blob, Words: [][]byte{filter.Bytes()}}, nil
}

// EncryptQuery implements Eq: the token is the codeword of the queried
// value.
func (s *Scheme) EncryptQuery(q relation.Eq) (*ph.EncryptedQuery, error) {
	if err := q.Validate(s.schema); err != nil {
		return nil, err
	}
	col := s.schema.ColumnIndex(q.Column)
	return &ph.EncryptedQuery{SchemeID: SchemeID, Token: s.codeword(col, q.Value)}, nil
}

// DecryptTable implements D on whole tables.
func (s *Scheme) DecryptTable(ct *ph.EncryptedTable) (*relation.Table, error) {
	if ct.SchemeID != SchemeID {
		return nil, fmt.Errorf("gohph: cannot decrypt table of scheme %q", ct.SchemeID)
	}
	t := relation.NewTable(s.schema)
	for i, etp := range ct.Tuples {
		tp, err := s.openTuple(etp)
		if err != nil {
			return nil, fmt.Errorf("gohph: decrypting tuple %d: %w", i, err)
		}
		if err := t.Adopt(tp); err != nil { // tp is freshly decoded: no copy
			return nil, err
		}
	}
	return t, nil
}

// DecryptResult opens the returned tuples and filters Bloom false
// positives.
func (s *Scheme) DecryptResult(q relation.Eq, r *ph.Result) (*relation.Table, error) {
	t := relation.NewTable(s.schema)
	for i, etp := range r.Tuples {
		tp, err := s.openTuple(etp)
		if err != nil {
			return nil, fmt.Errorf("gohph: decrypting result tuple %d: %w", i, err)
		}
		ok, err := q.Eval(s.schema, tp)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // Bloom false positive; drop
		}
		if err := t.Adopt(tp); err != nil { // tp is freshly decoded: no copy
			return nil, err
		}
	}
	return t, nil
}

// openTuple unseals one tuple.
func (s *Scheme) openTuple(etp ph.EncryptedTuple) (relation.Tuple, error) {
	pt, err := s.sealer.Open(etp.Blob)
	if err != nil {
		return nil, err
	}
	return relation.DecodeTuple(pt)
}

// Evaluate is ψ: key-free Bloom membership tests per tuple.
func Evaluate(et *ph.EncryptedTable, q *ph.EncryptedQuery) (*ph.Result, error) {
	m, k, err := decodeMeta(et.Meta)
	if err != nil {
		return nil, err
	}
	if len(q.Token) != codewordLen {
		return nil, fmt.Errorf("gohph: trapdoor must be %d bytes, got %d", codewordLen, len(q.Token))
	}
	var matched []int
	for i, etp := range et.Tuples {
		if len(etp.Words) != 1 {
			return nil, fmt.Errorf("gohph: tuple %d carries %d index blobs, want 1", i, len(etp.Words))
		}
		filter, err := bloom.FromBytes(etp.Words[0], m)
		if err != nil {
			return nil, fmt.Errorf("gohph: tuple %d: %w", i, err)
		}
		hit := true
		for _, pos := range positions(q.Token, etp.ID, m, k) {
			if !filter.Test(pos) {
				hit = false
				break
			}
		}
		if hit {
			matched = append(matched, i)
		}
	}
	return ph.SelectPositions(et, matched), nil
}

func init() {
	ph.RegisterEvaluator(SchemeID, Evaluate)
}

// encodeMeta serialises the public filter geometry.
func encodeMeta(m uint32, k int) []byte {
	meta := make([]byte, 6)
	binary.BigEndian.PutUint32(meta[0:], m)
	binary.BigEndian.PutUint16(meta[4:], uint16(k))
	return meta
}

// decodeMeta parses the filter geometry.
func decodeMeta(meta []byte) (m uint32, k int, err error) {
	if len(meta) != 6 {
		return 0, 0, fmt.Errorf("gohph: table meta must be 6 bytes, got %d", len(meta))
	}
	m = binary.BigEndian.Uint32(meta[0:])
	k = int(binary.BigEndian.Uint16(meta[4:]))
	if m == 0 || k == 0 {
		return 0, 0, fmt.Errorf("gohph: table meta declares empty filter geometry (m=%d, k=%d)", m, k)
	}
	return m, k, nil
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
			return nil, fmt.Errorf("gohph: drawing permutation: %w", err)
		}
		j := int(jBig.Int64())
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm, nil
}
