package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/swp"
)

// SchemeID is the evaluator-registry name of the paper's construction.
const SchemeID = "swp-ph"

// docIDLen is the length of the random per-tuple document identifier.
const docIDLen = 16

// Options tunes the construction.
type Options struct {
	// ChecksumLen is the SWP checksum width m in bytes; the per-slot
	// false-positive probability is 2^(-8m). Zero selects
	// DefaultChecksumLen. Columns too narrow for the requested width use
	// the largest width they admit (wordLen-1).
	ChecksumLen int
	// PerColumnWidth enables the "attributes of variable length"
	// optimisation the paper defers to its full version: words are padded
	// to their own column's width instead of the global maximum.
	// Ciphertext shrinks accordingly, at a documented leakage cost: the
	// *length* of a cipherword then reveals which column it encodes
	// (values are still padded within the column, so value lengths stay
	// hidden). The default (false) is the paper's §3 layout.
	PerColumnWidth bool
}

// DefaultChecksumLen (m = 2 bytes) gives a per-slot false-positive rate of
// 2^-16 ≈ 1.5e-5, "relatively small for all practical purposes" (§3).
const DefaultChecksumLen = 2

// PH is the paper's database privacy homomorphism (K, E, Eq, D) over a fixed
// relation schema, instantiated with the SWP searchable encryption scheme.
// It implements ph.Scheme. A PH value holds secret keys and must stay on
// Alex's side; everything it emits (ph.EncryptedTable, ph.EncryptedQuery) is
// safe to hand to Eve.
type PH struct {
	layout  *layout
	schemes map[int]*swp.Scheme // one SWP instance per distinct word length
	meta    []byte
}

// New derives a PH instance for the schema from a master key. One SWP
// instance is derived per distinct word length (a single one in the default
// fixed layout), each under its own domain-separated subkey.
func New(master crypto.Key, schema *relation.Schema, opts Options) (*PH, error) {
	l, err := newLayout(schema, opts.PerColumnWidth)
	if err != nil {
		return nil, err
	}
	m := opts.ChecksumLen
	if m == 0 {
		m = DefaultChecksumLen
	}
	if m < 1 {
		return nil, fmt.Errorf("core: checksum length must be positive, got %d", m)
	}
	p := &PH{layout: l, schemes: make(map[int]*swp.Scheme)}
	root := crypto.NewPRF(master)
	for _, n := range l.wordLengths() {
		params := swp.Params{WordLen: n, ChecksumLen: checksumFor(n, m)}
		sub, err := swp.New(root.DeriveKey(fmt.Sprintf("core/len/%d", n), nil), params)
		if err != nil {
			return nil, err
		}
		p.schemes[n] = sub
	}
	p.meta = encodeMeta(p.params())
	return p, nil
}

// checksumFor clamps the requested checksum width to what a word length
// and SWP's checksum function admit (1 <= m < n, m <= swp.MaxChecksumLen).
func checksumFor(wordLen, m int) int {
	return min(m, wordLen-1, swp.MaxChecksumLen)
}

// params collects the public per-length SWP parameters, sorted by word
// length.
func (p *PH) params() []swp.Params {
	var out []swp.Params
	for _, n := range p.layout.wordLengths() {
		out = append(out, p.schemes[n].Params())
	}
	return out
}

// Name implements ph.Scheme.
func (p *PH) Name() string { return SchemeID }

// Schema implements ph.Scheme.
func (p *PH) Schema() *relation.Schema { return p.layout.schema }

// Params returns the public SWP parameters of the instance, one entry per
// distinct word length (a single entry in the fixed layout).
func (p *PH) Params() []swp.Params { return p.params() }

// schemeForCol returns the SWP instance handling a column's words.
func (p *PH) schemeForCol(col int) *swp.Scheme {
	return p.schemes[p.layout.wordLenFor(col)]
}

// tupleCodec is the state one EncryptTable, DecryptTable or DecryptResult
// call carries from tuple to tuple: an swp.Codec per word length plus the
// scratch a tuple is assembled in, so that a tuple costs the allocations
// its output needs and SWP's key schedules, nothing per word. A codec is
// single-goroutine; each call makes its own, which is what keeps one PH
// safe for concurrent use.
type tupleCodec struct {
	l      *layout
	codecs map[int]*swp.Codec // word length -> codec
	word   []byte             // one plaintext word, as wide as the widest
	tuple  relation.Tuple     // the tuple being decrypted
	seen   []bool             // the columns of tuple already written
}

func (p *PH) newTupleCodec() *tupleCodec {
	cols := p.layout.schema.NumColumns()
	tc := &tupleCodec{
		l:      p.layout,
		codecs: make(map[int]*swp.Codec, len(p.schemes)),
		tuple:  make(relation.Tuple, cols),
		seen:   make([]bool, cols),
	}
	widest := 0
	for n, s := range p.schemes {
		tc.codecs[n] = s.NewCodec()
		widest = max(widest, n)
	}
	tc.word = make([]byte, widest)
	return tc
}

// setDocument positions every codec on one tuple's document.
func (tc *tupleCodec) setDocument(docID []byte) {
	for _, c := range tc.codecs {
		c.SetDocument(docID)
	}
}

// EncryptTable implements E of Definition 1.1: tuple-by-tuple encryption.
// Each tuple becomes an SWP document under a fresh random document ID, with
// the attribute words in a fresh random order (the paper models documents as
// *sets* of words; randomising the order makes that literal). The tuples
// themselves are also emitted in random order, so the ciphertext reveals
// nothing about insertion order.
func (p *PH) EncryptTable(t *relation.Table) (*ph.EncryptedTable, error) {
	if !t.Schema().Equal(p.layout.schema) {
		return nil, fmt.Errorf("core: table schema %q does not match instance schema %q",
			t.Schema().Name, p.layout.schema.Name)
	}
	et := &ph.EncryptedTable{
		SchemeID: SchemeID,
		Meta:     append([]byte(nil), p.meta...),
		Tuples:   make([]ph.EncryptedTuple, 0, t.Len()),
	}
	order, err := randomPerm(t.Len())
	if err != nil {
		return nil, err
	}
	tc := p.newTupleCodec()
	for _, ti := range order {
		etp, err := tc.encryptTuple(t.Tuple(ti))
		if err != nil {
			return nil, err
		}
		et.Tuples = append(et.Tuples, etp)
	}
	return et, nil
}

// encryptTuple maps one tuple to its encrypted document.
func (tc *tupleCodec) encryptTuple(tp relation.Tuple) (ph.EncryptedTuple, error) {
	docID := make([]byte, docIDLen)
	if _, err := rand.Read(docID); err != nil {
		return ph.EncryptedTuple{}, fmt.Errorf("core: drawing document id: %w", err)
	}
	perm, err := randomPerm(len(tp))
	if err != nil {
		return ph.EncryptedTuple{}, err
	}
	tc.setDocument(docID)
	cipherwords := make([][]byte, len(tp))
	for pos, col := range perm {
		w, err := tc.l.makeWord(tc.word, col, tp[col])
		if err != nil {
			return ph.EncryptedTuple{}, err
		}
		cipherwords[pos] = make([]byte, len(w))
		if err := tc.codecs[len(w)].EncryptWordInto(cipherwords[pos], uint64(pos), w); err != nil {
			return ph.EncryptedTuple{}, err
		}
	}
	return ph.EncryptedTuple{ID: docID, Words: cipherwords}, nil
}

// EncryptQuery implements Eq of Definition 1.1: the exact select
// σ_attr:value becomes the SWP search ϕ_{value|pad|attr-id}.
func (p *PH) EncryptQuery(q relation.Eq) (*ph.EncryptedQuery, error) {
	if err := q.Validate(p.layout.schema); err != nil {
		return nil, err
	}
	col := p.layout.schema.ColumnIndex(q.Column)
	w, err := p.layout.makeWord(nil, col, q.Value)
	if err != nil {
		return nil, err
	}
	td, err := p.schemeForCol(col).NewTrapdoor(w)
	if err != nil {
		return nil, err
	}
	return &ph.EncryptedQuery{SchemeID: SchemeID, Token: encodeTrapdoor(td)}, nil
}

// decryptTuple reconstructs a plaintext tuple from its encrypted document.
// The tuple it returns is the codec's scratch, valid until the next call;
// relation.Table.Insert copies it.
func (tc *tupleCodec) decryptTuple(etp ph.EncryptedTuple) (relation.Tuple, error) {
	if len(etp.Words) != len(tc.tuple) {
		return nil, fmt.Errorf("core: document has %d words, schema has %d columns",
			len(etp.Words), len(tc.tuple))
	}
	tc.setDocument(etp.ID)
	clear(tc.seen)
	for pos, cw := range etp.Words {
		c, ok := tc.codecs[len(cw)]
		if !ok {
			return nil, fmt.Errorf("core: no scheme for word length %d", len(cw))
		}
		w := tc.word[:len(cw)]
		if err := c.DecryptWordInto(w, uint64(pos), cw); err != nil {
			return nil, err
		}
		col, v, err := tc.l.parseWord(w)
		if err != nil {
			return nil, err
		}
		if tc.seen[col] {
			return nil, fmt.Errorf("core: document contains column %q twice", tc.l.schema.Columns[col].Name)
		}
		tc.seen[col] = true
		tc.tuple[col] = v
	}
	// As many words as columns and no column twice: every slot was
	// written, so nothing of the previous tuple is left in the scratch.
	return tc.tuple, nil
}

// DecryptTable implements D of Definition 1.1 on whole tables.
func (p *PH) DecryptTable(ct *ph.EncryptedTable) (*relation.Table, error) {
	if ct.SchemeID != SchemeID {
		return nil, fmt.Errorf("core: cannot decrypt table of scheme %q", ct.SchemeID)
	}
	t := relation.NewTable(p.layout.schema)
	tc := p.newTupleCodec()
	for i, etp := range ct.Tuples {
		tp, err := tc.decryptTuple(etp)
		if err != nil {
			return nil, fmt.Errorf("core: decrypting tuple %d: %w", i, err)
		}
		if err := t.Insert(tp); err != nil {
			return nil, fmt.Errorf("core: decrypted tuple %d invalid: %w", i, err)
		}
	}
	return t, nil
}

// DecryptResult decrypts the server's answer to query q and filters false
// positives by re-evaluating the plaintext predicate, exactly as §3
// prescribes ("Alex needs to run a filter on the output").
func (p *PH) DecryptResult(q relation.Eq, r *ph.Result) (*relation.Table, error) {
	t := relation.NewTable(p.layout.schema)
	tc := p.newTupleCodec()
	for i, etp := range r.Tuples {
		tp, err := tc.decryptTuple(etp)
		if err != nil {
			return nil, fmt.Errorf("core: decrypting result tuple %d: %w", i, err)
		}
		ok, err := q.Eval(p.layout.schema, tp)
		if err != nil {
			return nil, fmt.Errorf("core: filtering result tuple %d: %w", i, err)
		}
		if !ok {
			continue // false positive from the SWP checksum; drop it
		}
		if err := t.Insert(tp); err != nil {
			return nil, fmt.Errorf("core: decrypted result tuple %d invalid: %w", i, err)
		}
	}
	return t, nil
}

// parallelThreshold is the tuple count below which a scan stays on its
// caller's goroutine without consulting the budget. At ~0.025 µs per emp
// tuple (the run kernel), two-way sharded EvaluateOn against serial on a
// 2-vCPU box measured 1.05–1.15× at 2048 tuples, 0.95–1.07× at 4096,
// 0.74–1.05× at 8192 and 0.57–0.84× at 16384 (medians of 15 interleaved
// runs, three sets of three taken while the box had a second core free):
// below 8192, forking and joining saves nothing a scan can count on.
const parallelThreshold = 8192

// Evaluate is ψ: the key-free server-side search. It is exported for direct
// use and also registered as the package's ph.Evaluator. A tuple matches if
// any of its cipherwords of the trapdoor's length matches the trapdoor.
// The scan runs through shardScan, so the output is byte-identical to
// EvaluateSerial's.
func Evaluate(et *ph.EncryptedTable, q *ph.EncryptedQuery) (*ph.Result, error) {
	positions, err := EvaluateOn(et, q, nil)
	if err != nil {
		return nil, err
	}
	return ph.SelectPositions(et, positions), nil
}

// shardScan is the package's one scan driver: it runs scan over
// contiguous chunks of [0, n) and merges the per-chunk hit lists in chunk
// order, so the output is byte-identical to scan(0, n, base). Small
// inputs stay on the caller's goroutine. Larger ones draw an allotment
// from the process-wide scheduler budget (internal/sched), which counts
// the caller: a scan that finds the budget idle shards across up to
// GOMAXPROCS goroutines, one that finds it taken by concurrent scans is
// granted only itself and runs exactly the serial loop — no goroutine,
// no join, never blocked. The caller scans chunk 0 with the base
// Matcher; every other chunk gets its own goroutine and its own
// allocation-free clone, whose mutable state shares no cache line with
// any other worker's (see swp.Matcher).
func shardScan(n int, base *swp.Matcher, scan func(lo, hi int, m *swp.Matcher) []int) []int {
	if n < parallelThreshold {
		return scan(0, n, base)
	}
	budget := sched.Process()
	workers := budget.Acquire(runtime.GOMAXPROCS(0))
	defer budget.Release(workers)
	if workers < 2 {
		return scan(0, n, base)
	}
	chunk := (n + workers - 1) / workers
	results := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int, m *swp.Matcher) {
			defer wg.Done()
			results[w] = scan(min(w*chunk, n), min((w+1)*chunk, n), m)
		}(w, base.Clone())
	}
	results[0] = scan(0, chunk, base)
	wg.Wait()
	total := 0
	for _, r := range results {
		total += len(r)
	}
	hits := make([]int, 0, total)
	for _, r := range results {
		hits = append(hits, r...)
	}
	return hits
}

// TokenMatcher decodes an encrypted query's token against a table's
// metadata and returns the ready-to-scan ψ matcher. The matcher (like the
// trapdoor it wraps) aliases the token, so the caller must keep the token
// alive for the matcher's life; a Matcher is not goroutine-safe — Clone
// per extra worker. Every scan in this package starts here; it is
// exported so a benchmark can time the kernel under the same matcher.
func TokenMatcher(meta, token []byte) (*swp.Matcher, error) {
	td, params, err := decodeQueryToken(meta, token)
	if err != nil {
		return nil, err
	}
	return swp.NewMatcher(params, td), nil
}

// EvaluateSerial is the single-threaded reference implementation of
// Evaluate. It exists for differential tests and as the before-side of the
// parallel-speedup benchmarks; Evaluate must always produce the same result.
func EvaluateSerial(et *ph.EncryptedTable, q *ph.EncryptedQuery) (*ph.Result, error) {
	m, err := TokenMatcher(et.Meta, q.Token)
	if err != nil {
		return nil, err
	}
	positions := MatchTuples(et.Tuples, 0, m, make([]int, 0, PositionsCap(len(et.Tuples))))
	return ph.SelectPositions(et, positions), nil
}

// EvaluateOn is the candidate-restricted ψ behind the conjunctive
// planner: it tests only the tuples at the given ascending candidate
// positions and returns the ascending subsequence that matched. Cost is
// O(len(candidates)) match tests instead of a full table scan, which is
// what turns a k-conjunct query from k full scans into one full scan
// plus narrowing passes over the survivors. Nil candidates select the
// whole table (the Narrower contract): a positions-only scan with no
// candidate list materialised or validated — Evaluate's scan without
// the tuple cloning its Result carries. Both shapes run through
// shardScan, so the output is deterministic.
func EvaluateOn(et *ph.EncryptedTable, q *ph.EncryptedQuery, candidates []int) ([]int, error) {
	base, err := TokenMatcher(et.Meta, q.Token)
	if err != nil {
		return nil, err
	}
	n := len(et.Tuples)
	if candidates == nil {
		return shardScan(n, base,
			func(lo, hi int, m *swp.Matcher) []int {
				return MatchTuples(et.Tuples[lo:hi], lo, m, make([]int, 0, PositionsCap(hi-lo)))
			}), nil
	}
	for i, p := range candidates {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("core: candidate position %d out of range [0, %d)", p, n)
		}
		if i > 0 && candidates[i-1] >= p {
			return nil, fmt.Errorf("core: candidate positions not strictly ascending at index %d", i)
		}
	}
	return shardScan(len(candidates), base,
		func(lo, hi int, m *swp.Matcher) []int {
			return scanCandidates(et.Tuples, candidates[lo:hi], m, make([]int, 0, (hi-lo)/2+4))
		}), nil
}

// scanCandidates appends every candidate position whose tuple matches:
// one kernel run over the candidates' documents, whose indices map back
// through candidates.
func scanCandidates(tuples []ph.EncryptedTuple, candidates []int, m *swp.Matcher, hits []int) []int {
	from := len(hits)
	hits = m.MatchRun(len(candidates), func(i int) [][]byte { return tuples[candidates[i]].Words }, hits)
	for j, i := range hits[from:] {
		hits[from+j] = candidates[i]
	}
	return hits
}

// MatchTuples appends base+i to hits for every tuple in tuples whose
// document matches: one Matcher.MatchRun over the chunk, which batches
// words across tuple boundaries through AES. The Matcher skips
// cipherwords of other lengths itself, which is how mixed-width documents
// (PerColumnWidth layouts) skip non-candidate words. It is the loop under
// every full-width scan — serial, sharded or a benchmark's — which is
// what keeps them byte-identical.
func MatchTuples(tuples []ph.EncryptedTuple, base int, m *swp.Matcher, hits []int) []int {
	from := len(hits)
	hits = m.MatchRun(len(tuples), func(i int) [][]byte { return tuples[i].Words }, hits)
	for j := range hits[from:] {
		hits[from+j] += base
	}
	return hits
}

// PositionsCap sizes the hit slice for a scan of n tuples: exact selects
// usually return a small fraction of the table, so reserve an eighth (plus
// slack for tiny tables) and let append grow the rare broad result.
func PositionsCap(n int) int {
	return n/8 + 8
}

func init() {
	ph.RegisterEvaluator(SchemeID, Evaluate)
	ph.RegisterNarrower(SchemeID, EvaluateOn)
}

// metaVersion tags the table-metadata encoding and, with it, the
// instantiation of the SWP primitives the ciphertext was written under:
// a change to either bumps it, so that ciphertext no trapdoor of this
// build can match is refused instead of silently matching nothing.
const metaVersion = 4

// encodeMeta serialises the public per-length SWP parameters carried on
// every encrypted table: version, count, then (wordLen, checksumLen) pairs.
func encodeMeta(params []swp.Params) []byte {
	meta := make([]byte, 0, 2+4*len(params))
	meta = append(meta, metaVersion)
	meta = append(meta, byte(len(params)))
	var u16 [2]byte
	for _, p := range params {
		binary.BigEndian.PutUint16(u16[:], uint16(p.WordLen))
		meta = append(meta, u16[:]...)
		binary.BigEndian.PutUint16(u16[:], uint16(p.ChecksumLen))
		meta = append(meta, u16[:]...)
	}
	return meta
}

// metaPairs validates the metadata header and returns the number of
// (wordLen, checksumLen) pairs it carries.
func metaPairs(meta []byte) (int, error) {
	if len(meta) < 2 {
		return 0, fmt.Errorf("core: table meta of %d bytes too short", len(meta))
	}
	if meta[0] != metaVersion {
		return 0, fmt.Errorf("core: table meta version %d, this build reads only version %d: re-encrypt the table", meta[0], metaVersion)
	}
	n := int(meta[1])
	if len(meta) != 2+4*n {
		return 0, fmt.Errorf("core: table meta of %d bytes does not hold %d parameter pairs", len(meta), n)
	}
	if n == 0 {
		return 0, fmt.Errorf("core: table meta declares no word lengths")
	}
	return n, nil
}

// metaParam reads parameter pair i from validated metadata.
func metaParam(meta []byte, i int) swp.Params {
	return swp.Params{
		WordLen:     int(binary.BigEndian.Uint16(meta[2+4*i:])),
		ChecksumLen: int(binary.BigEndian.Uint16(meta[4+4*i:])),
	}
}

// encodeTrapdoor serialises an SWP trapdoor as X || K; the X length is
// recovered from the token length (K is fixed-size).
func encodeTrapdoor(td swp.Trapdoor) []byte {
	out := make([]byte, 0, len(td.X)+len(td.K))
	out = append(out, td.X...)
	return append(out, td.K...)
}

// decodeQueryToken parses a serialised trapdoor and resolves its
// parameters directly against the raw table metadata, with no intermediate
// word-length map — Evaluate runs once per query, and a map would be the
// query path's last avoidable per-call allocation. The trapdoor aliases
// the token (no copies), so the caller must keep the token alive for the
// trapdoor's life. All parameter pairs are validated and duplicate word
// lengths rejected before the lookup result is used.
func decodeQueryToken(meta, token []byte) (swp.Trapdoor, swp.Params, error) {
	n, err := metaPairs(meta)
	if err != nil {
		return swp.Trapdoor{}, swp.Params{}, err
	}
	xLen := len(token) - crypto.KeySize
	if xLen < 2 {
		return swp.Trapdoor{}, swp.Params{}, fmt.Errorf("core: trapdoor token of %d bytes too short", len(token))
	}
	var params swp.Params
	found := false
	for i := 0; i < n; i++ {
		p := metaParam(meta, i)
		if err := p.Validate(); err != nil {
			return swp.Trapdoor{}, swp.Params{}, err
		}
		for j := 0; j < i; j++ {
			if metaParam(meta, j).WordLen == p.WordLen {
				return swp.Trapdoor{}, swp.Params{}, fmt.Errorf("core: table meta repeats word length %d", p.WordLen)
			}
		}
		if p.WordLen == xLen {
			params, found = p, true
		}
	}
	if !found {
		return swp.Trapdoor{}, swp.Params{}, fmt.Errorf("core: trapdoor word length %d unknown to this table", xLen)
	}
	return swp.Trapdoor{X: token[:xLen], K: token[xLen:]}, params, nil
}

// randomPerm draws a uniformly random permutation of [0, n) using
// crypto/rand (Fisher–Yates). Encryption-side randomness must not come from
// a seedable generator, or ciphertext order would become a side channel.
func randomPerm(n int) ([]int, error) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		jBig, err := rand.Int(rand.Reader, big.NewInt(int64(i+1)))
		if err != nil {
			return nil, fmt.Errorf("core: drawing permutation: %w", err)
		}
		j := int(jBig.Int64())
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm, nil
}
