package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/swp"
)

// SchemeID is the evaluator-registry name of the paper's construction.
const SchemeID = "swp-ph"

// docIDLen is the length of the random per-tuple document identifier:
// the one length SWP's stream function accepts.
const docIDLen = swp.DocIDLen

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

	// idle holds the tuple codecs between two calls, as many as calls
	// have run at once. Unlike a sync.Pool's, they survive garbage
	// collection: a codec's scratch and memo, grown once, stay grown.
	mu   sync.Mutex
	idle []*tupleCodec
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

// tupleCodec is the state one EncryptTable worker, DecryptTable or
// DecryptResult call carries from tuple to tuple: an swp.Codec per word
// length plus the scratch a run of tuples is assembled in, so that a tuple
// costs the allocations its output needs, nothing per word. A codec is
// single-goroutine; each call takes one of its own from the PH's idle
// list and resets it, so its word memo lives for exactly that call, and
// one PH stays safe for concurrent use.
type tupleCodec struct {
	l      *layout
	codecs []*swp.Codec   // word length -> codec; nil where no scheme has it
	tuple  relation.Tuple // the tuple being parsed
	seen   []bool         // the columns of tuple already written
	perm   []int          // the word order of the tuple being encrypted
	rnd    []byte         // an encryption run's randomness (drawRun)

	// A run's plaintext words, cut back to back from plain; decrypting,
	// bounds[k] and bounds[k+1] delimit the k-th word queued (cols per
	// tuple) in plain, and at[n] is the tuple the codec for words of n
	// bytes was last positioned on.
	plain  []byte
	bounds []int
	at     []int
}

// codec takes an idle tuple codec and resets it, or builds one. Callers
// hand it back with p.release when done.
func (p *PH) codec() *tupleCodec {
	p.mu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.mu.Unlock()
		return p.newTupleCodec()
	}
	tc := p.idle[n-1]
	p.idle = p.idle[:n-1]
	p.mu.Unlock()
	for _, c := range tc.codecs {
		if c != nil {
			c.Reset()
		}
	}
	return tc
}

// release hands a tuple codec back for the next call.
func (p *PH) release(tc *tupleCodec) {
	p.mu.Lock()
	p.idle = append(p.idle, tc)
	p.mu.Unlock()
}

// newTupleCodec builds a tuple codec with a fresh swp.Codec per word
// length.
func (p *PH) newTupleCodec() *tupleCodec {
	cols := p.layout.schema.NumColumns()
	widest := slices.Max(p.layout.wordLengths())
	tc := &tupleCodec{
		l:      p.layout,
		codecs: make([]*swp.Codec, widest+1),
		tuple:  make(relation.Tuple, cols),
		seen:   make([]bool, cols),
		perm:   make([]int, cols),
		plain:  make([]byte, swp.RunDocs*cols*widest),
		bounds: make([]int, 0, swp.RunDocs*cols+1),
		at:     make([]int, widest+1),
	}
	for n, s := range p.schemes {
		tc.codecs[n] = s.NewCodec()
	}
	return tc
}

// setDocument positions every codec on one tuple's document.
func (tc *tupleCodec) setDocument(docID []byte) error {
	for _, c := range tc.codecs {
		if c != nil {
			if err := c.SetDocument(docID); err != nil {
				return err
			}
		}
	}
	return nil
}

// codecFor returns the codec for words of n bytes, or nil.
func (tc *tupleCodec) codecFor(n int) *swp.Codec {
	if n < len(tc.codecs) {
		return tc.codecs[n]
	}
	return nil
}

// encryptThreshold is the tuple count from which EncryptTable fans out
// over the process budget; DB.Insert's 4-tuple batches, and every table
// below it, stay on the caller's goroutine without consulting the budget.
// At ~2.4 µs per emp tuple serially, fanned-out encryption against serial
// on a 2-vCPU box measured 0.85× at 256 tuples (0.66–0.95), 0.74× at 512
// (0.56–0.85) and 0.68× at 1024 (0.58–0.81), medians of 10 interleaved
// runs: from 512 on, the fork pays on every run.
const encryptThreshold = 512

// EncryptTable implements E of Definition 1.1: tuple-by-tuple encryption.
// Each tuple becomes an SWP document under a fresh random document ID, with
// the attribute words in a fresh random order (the paper models documents as
// *sets* of words; randomising the order makes that literal). The tuples
// themselves are also emitted in random order, so the ciphertext reveals
// nothing about insertion order.
//
// The tuples are encrypted in runs of swp.RunDocs (tupleCodec.encrypt). A
// table of encryptThreshold tuples or more is cut by fork into contiguous
// stretches of its shuffled order, one per worker the process budget
// grants, each encrypted on a tuple codec of its own with randomness of
// its own into its stretch of the output.
func (p *PH) EncryptTable(t *relation.Table) (*ph.EncryptedTable, error) {
	if !t.Schema().Equal(p.layout.schema) {
		return nil, fmt.Errorf("core: table schema %q does not match instance schema %q",
			t.Schema().Name, p.layout.schema.Name)
	}
	order, err := randomPerm(t.Len())
	if err != nil {
		return nil, err
	}
	et := &ph.EncryptedTable{
		SchemeID: SchemeID,
		Meta:     append([]byte(nil), p.meta...),
		Tuples:   make([]ph.EncryptedTuple, len(order)),
	}
	if len(order) < encryptThreshold {
		err = p.encrypt(t, order, et.Tuples)
	} else {
		errs := make([]error, runtime.GOMAXPROCS(0))
		fork(len(order), len(errs), func(w, lo, hi int) {
			errs[w] = p.encrypt(t, order[lo:hi], et.Tuples[lo:hi])
		})
		err = errors.Join(errs...)
	}
	if err != nil {
		return nil, err
	}
	return et, nil
}

// encrypt encrypts the tuples t.Tuple(order[i]) into out[i] on a tuple
// codec of its own.
func (p *PH) encrypt(t *relation.Table, order []int, out []ph.EncryptedTuple) error {
	tc := p.codec()
	defer p.release(tc)
	return tc.encrypt(t, order, out)
}

// encrypt writes E of the tuples t.Tuple(order[i]) into out[i], in runs of
// swp.RunDocs tuples, the way decrypt reads them. A run draws all its
// randomness in one crypto/rand read (drawRun), positions every codec on
// each tuple in turn and queues the tuple's words, in the order its
// permutation draws, on the codec for their length, then encrypts each
// codec's words as one swp run. A run's document IDs and cipherwords are
// cut from one slab and its word lists from another, each capped at its
// own length, so appending to one never writes into its neighbour.
func (tc *tupleCodec) encrypt(t *relation.Table, order []int, out []ph.EncryptedTuple) error {
	cols := len(tc.perm)
	stride, size := docIDLen+8*(cols-1), docIDLen
	for col := range cols {
		size += tc.l.wordLenFor(col)
	}
	for lo := 0; lo < len(order); lo += swp.RunDocs {
		run := order[lo:min(lo+swp.RunDocs, len(order))]
		rnd, err := tc.drawRun(len(run))
		if err != nil {
			return err
		}
		slab, words := make([]byte, len(run)*size), make([][]byte, len(run)*cols)
		off, plain := 0, 0
		for i, ti := range run {
			tp, r := t.Tuple(ti), rnd[i*stride:(i+1)*stride]
			id := slab[off : off+docIDLen : off+docIDLen]
			off += copy(id, r)
			if err := shuffle(tc.perm, r[docIDLen:]); err != nil {
				return err
			}
			if err := tc.setDocument(id); err != nil {
				return err
			}
			cws := words[i*cols : (i+1)*cols : (i+1)*cols]
			for pos, col := range tc.perm {
				w, err := tc.l.makeWord(tc.plain[plain:], col, tp[col])
				if err != nil {
					return err
				}
				plain += len(w)
				cws[pos] = slab[off : off+len(w) : off+len(w)]
				off += len(w)
				if err := tc.codecFor(len(w)).QueueWord(cws[pos], uint64(pos), w); err != nil {
					return err
				}
			}
			out[lo+i] = ph.EncryptedTuple{ID: id, Words: cws}
		}
		for _, c := range tc.codecs {
			if c != nil {
				c.EncryptRun()
			}
		}
	}
	return nil
}

// drawRun reads the randomness of an encryption run of k tuples in one
// crypto/rand call into the codec's scratch: per tuple, its document ID
// and then 8 bytes per swap of its word permutation (shuffle).
func (tc *tupleCodec) drawRun(k int) ([]byte, error) {
	n := k * (docIDLen + 8*(len(tc.perm)-1))
	if len(tc.rnd) < n {
		tc.rnd = make([]byte, n)
	}
	if _, err := rand.Read(tc.rnd[:n]); err != nil {
		return nil, fmt.Errorf("core: drawing document ids and permutations: %w", err)
	}
	return tc.rnd[:n], nil
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

// DecryptTable implements D of Definition 1.1 on whole tables. A string
// value of the table shares the plaintext of the run of swp.RunDocs tuples
// it was decrypted in: one string of at most RunDocs times a tuple's word
// bytes (1,056 B for the employee table's 3 words of 11), which one value
// kept alive keeps alive whole.
func (p *PH) DecryptTable(ct *ph.EncryptedTable) (*relation.Table, error) {
	if ct.SchemeID != SchemeID {
		return nil, fmt.Errorf("core: cannot decrypt table of scheme %q", ct.SchemeID)
	}
	tc := p.codec()
	defer p.release(tc)
	return tc.decrypt(ct.Tuples, nil, "tuple")
}

// DecryptResult decrypts the server's answer to query q and filters false
// positives by re-evaluating the plaintext predicate, exactly as §3
// prescribes ("Alex needs to run a filter on the output"). A string value
// of the answer shares its run's plaintext string, as DecryptTable's do.
func (p *PH) DecryptResult(q relation.Eq, r *ph.Result) (*relation.Table, error) {
	tc := p.codec()
	defer p.release(tc)
	return tc.decrypt(r.Tuples, &q, "result tuple")
}

// decrypt is D over tuples, keeping those that satisfy q (all of them if
// q is nil); what names a tuple in errors. It cuts the tuples into runs of
// swp.RunDocs: it queues every word of a run on the codec for its length
// and decrypts each codec's words as one swp run, turns the run's
// plaintext into one string, then parses, filters and adds the run's
// tuples in order, every string value a substring of the run's string —
// a copy, so the codec's scratch is free for the next run and the next
// call the moment it is made. A kept tuple is copied into a slab
// of values allocated at the first one for all that may follow, and the
// table takes it from there with no further copy, so an answer of false
// positives alone allocates neither. A tuple's shape — its word count,
// identifier and word lengths — is checked before any of its words is
// queued, and an error about tuple i comes only after tuples 0 … i−1 have
// been parsed and found sound, so the first bad tuple is the one named,
// and no table comes with an error.
func (tc *tupleCodec) decrypt(tuples []ph.EncryptedTuple, q *relation.Eq, what string) (*relation.Table, error) {
	schema := tc.l.schema
	cols := schema.NumColumns()
	t := relation.NewTable(schema)
	var slab []relation.Value
	for lo := 0; lo < len(tuples); lo += swp.RunDocs {
		run := tuples[lo:min(lo+swp.RunDocs, len(tuples))]
		queued, qerr := tc.queue(run)
		for _, c := range tc.codecs {
			if c != nil {
				c.DecryptRun()
			}
		}
		text := string(tc.plain[:tc.bounds[queued*cols]])
		for i := 0; i < queued; i++ {
			if err := tc.parse(text, tc.bounds[i*cols:(i+1)*cols+1]); err != nil {
				return nil, fmt.Errorf("core: decrypting %s %d: %w", what, lo+i, err)
			}
			if q != nil {
				ok, err := q.Eval(schema, tc.tuple)
				if err != nil {
					return nil, fmt.Errorf("core: filtering %s %d: %w", what, lo+i, err)
				}
				if !ok {
					continue // false positive from the SWP checksum; drop it
				}
			}
			if len(slab) == 0 {
				rest := len(tuples) - lo - i
				slab = make([]relation.Value, rest*cols)
				t.Grow(rest)
			}
			tp := relation.Tuple(slab[:cols:cols])
			copy(tp, tc.tuple)
			if err := t.Adopt(tp); err != nil {
				return nil, fmt.Errorf("core: decrypted %s %d invalid: %w", what, lo+i, err)
			}
			slab = slab[cols:]
		}
		if qerr != nil {
			return nil, fmt.Errorf("core: decrypting %s %d: %w", what, lo+queued, qerr)
		}
	}
	return t, nil
}

// queue queues every word of the run's tuples on the codec for its
// length, into plaintext slots cut back to back from tc.plain and
// delimited in tc.bounds, and returns how many tuples it queued: all of
// them, or those before the first whose shape is wrong, with that tuple's
// error.
func (tc *tupleCodec) queue(run []ph.EncryptedTuple) (int, error) {
	cols := len(tc.seen)
	tc.bounds = append(tc.bounds[:0], 0)
	off := 0
	clear(tc.at)
	for i, etp := range run {
		if len(etp.Words) != cols {
			return i, fmt.Errorf("core: document has %d words, schema has %d columns", len(etp.Words), cols)
		}
		for _, cw := range etp.Words {
			if tc.codecFor(len(cw)) == nil {
				return i, fmt.Errorf("core: no scheme for word length %d", len(cw))
			}
		}
		for pos, cw := range etp.Words {
			c := tc.codecFor(len(cw))
			if tc.at[len(cw)] != i+1 {
				if err := c.SetDocument(etp.ID); err != nil {
					return i, err // the tuple's first word: nothing of it is queued
				}
				tc.at[len(cw)] = i + 1
			}
			w := tc.plain[off : off+len(cw) : off+len(cw)]
			off += len(cw)
			if err := c.QueueWord(w, uint64(pos), cw); err != nil {
				return i, err // unreachable: the codec was chosen by the word's length
			}
			tc.bounds = append(tc.bounds, off)
		}
	}
	return len(run), nil
}

// parse fills tc.tuple from one decrypted tuple's words, text[bounds[j]:
// bounds[j+1]] for each j. As many words as columns and no column twice:
// every slot is written, so nothing of the previous tuple is left.
func (tc *tupleCodec) parse(text string, bounds []int) error {
	clear(tc.seen)
	for j := range len(bounds) - 1 {
		col, v, err := tc.l.parseWord(text[bounds[j]:bounds[j+1]])
		if err != nil {
			return err
		}
		if tc.seen[col] {
			return fmt.Errorf("core: document contains column %q twice", tc.l.schema.Columns[col].Name)
		}
		tc.seen[col] = true
		tc.tuple[col] = v
	}
	return nil
}

// parallelThreshold is the tuple count below which a scan stays on its
// caller's goroutine without consulting the budget. At ~0.025 µs per emp
// tuple (the run kernel), a two-way sharded scan against serial on a
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
	base, err := TokenMatcher(et.Meta, q.Token)
	if err != nil {
		return nil, err
	}
	positions := shardScan(len(et.Tuples), base, func(lo, hi int, m *swp.Matcher) []int {
		return MatchTuples(et.Tuples[lo:hi], lo, m, make([]int, 0, PositionsCap(hi-lo)))
	})
	return ph.SelectPositions(et, positions), nil
}

// shardScan runs scan over contiguous chunks of [0, n) and merges the
// per-chunk hit lists in chunk order, so the output is byte-identical to
// scan(0, n, base). Inputs below parallelThreshold stay on the caller's
// goroutine; larger ones fork, the caller scanning chunk 0 with the base
// Matcher and every other chunk getting its own allocation-free clone,
// whose mutable state shares no cache line with any other worker's (see
// swp.Matcher).
func shardScan(n int, base *swp.Matcher, scan func(lo, hi int, m *swp.Matcher) []int) []int {
	if n < parallelThreshold {
		return scan(0, n, base)
	}
	results := make([][]int, runtime.GOMAXPROCS(0))
	fork(n, len(results), func(w, lo, hi int) {
		m := base
		if w > 0 {
			m = base.Clone()
		}
		results[w] = scan(lo, hi, m)
	})
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

// fork is the package's one fan-out, under every scan shardScan shards and
// every table EncryptTable fans out. It draws an allotment of up to want
// workers from the process-wide scheduler budget (internal/sched), which
// counts the caller, and calls run(w, lo, hi) for each worker w < want on
// its contiguous chunk of [0, n): chunk 0 on the caller's goroutine, every
// other on a goroutine of its own, returning once all have returned. A
// caller that finds the budget idle fans out over up to want cores; one
// that finds it taken by concurrent work is granted only itself and runs
// run(0, 0, n) alone — no goroutine, no join, never blocked.
func fork(n, want int, run func(w, lo, hi int)) {
	budget := sched.Process()
	workers := budget.Acquire(want)
	defer budget.Release(workers)
	if workers < 2 {
		run(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w, min(w*chunk, n), min((w+1)*chunk, n))
		}()
	}
	run(0, 0, chunk)
	wg.Wait()
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

// EvaluateSlab is the candidate-restricted ψ behind the conjunctive
// planner, over a slab, the store's resident form of a table: it tests
// only the tuples at the given ascending candidate positions and returns
// the ascending subsequence that matched. Cost is O(len(candidates))
// match tests instead of a full table scan, which is what turns a
// k-conjunct query from k full scans into one full scan plus narrowing
// passes over the survivors. Nil candidates select every position from
// from on — the whole table from 0, an appended tail from a cached
// prefix's length: a positions-only scan with no candidate list
// materialised or validated. Both shapes run through shardScan, so the
// output is deterministic. It is the store's only scan, and does not
// check q's scheme ID: its caller does.
func EvaluateSlab(s *ph.Slab, q *ph.EncryptedQuery, from int, candidates []int) ([]int, error) {
	base, err := TokenMatcher(s.Meta, q.Token)
	if err != nil {
		return nil, err
	}
	n := s.Len()
	if candidates == nil {
		if from < 0 || from > n {
			return nil, fmt.Errorf("core: scan from position %d of a %d-tuple table", from, n)
		}
		return shardScan(n-from, base,
			func(lo, hi int, m *swp.Matcher) []int {
				return matchSlab(s, from+lo, hi-lo, nil, m, make([]int, 0, PositionsCap(hi-lo)))
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
			return matchSlab(s, 0, hi-lo, candidates[lo:hi], m, make([]int, 0, (hi-lo)/2+4))
		}), nil
}

// scanScratch is the word headers a slab scan cuts its documents into.
// A doc callback's result escapes, so it is pooled, one per worker: a
// scan allocates nothing for a run of at most scratchWords words. Every
// document writes its words, so they are padded onto cache lines of
// their own, as swp pads a Matcher's run: workers scanning side by side
// never take a line from each other.
type scanScratch struct {
	_     [64]byte
	words [scratchWords][]byte
	_     [64]byte
}

const scratchWords = 8

// span is a word's bytes [lo, hi) in its tuple.
type span struct{ lo, hi int }

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// matchSlab appends the slab position of every document i < n whose
// tuple matches, document i being the tuple at position lo+i, or at
// candidates[i] when candidates is not nil: one kernel run per slab run
// the documents fall in.
func matchSlab(s *ph.Slab, lo, n int, candidates []int, m *swp.Matcher, hits []int) []int {
	sc := scratchPool.Get().(*scanScratch)
	defer func() { *sc = scanScratch{}; scratchPool.Put(sc) }()
	for n > 0 {
		p := lo
		if candidates != nil {
			p = candidates[0]
		}
		r := s.Run(p)
		k := min(n, r.Start+r.N-lo) // the documents in r
		if candidates != nil {
			k = sort.SearchInts(candidates, r.Start+r.N)
		}
		from := len(hits)
		hits = matchRun(r, lo-r.Start, k, candidates[:min(k, len(candidates))], sc, m, hits)
		for j, i := range hits[from:] {
			if hits[from+j] = lo + i; candidates != nil {
				hits[from+j] = candidates[i]
			}
		}
		lo, n = lo+k, n-k
		if candidates != nil {
			candidates = candidates[k:]
		}
	}
	return hits
}

// matchRun is matchSlab over the documents in run r: its tuples first+i
// for i < n, or candidates[i] − r.Start when candidates is not nil. Each
// document's words are cut from its stride into sc, or into arrays of
// their own when the run is wider, at spans worked out once for the run.
func matchRun(r *ph.Run, first, n int, candidates []int, sc *scanScratch, m *swp.Matcher, hits []int) []int {
	k := len(r.Words)
	var stack [scratchWords]span
	words, spans := sc.words[:], stack[:]
	if k > len(words) {
		words, spans = make([][]byte, k), make([]span, k)
	}
	words, spans = words[:k], spans[:k]
	at := r.ID + r.Blob
	for w, l := range r.Words {
		spans[w] = span{at, at + l}
		at += l
	}
	if candidates != nil {
		body, stride, start := r.Body, r.Stride, r.Start
		return m.MatchRun(n, func(i int) [][]byte {
			b := body[(candidates[i]-start)*stride:]
			for w, sp := range spans {
				words[w] = b[sp.lo:sp.hi:sp.hi]
			}
			return words
		}, hits)
	}
	body, stride := r.Body[first*r.Stride:], r.Stride
	return m.MatchRun(n, func(i int) [][]byte {
		b := body[i*stride:]
		for w, sp := range spans {
			words[w] = b[sp.lo:sp.hi:sp.hi]
		}
		return words
	}, hits)
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
}

// metaVersion tags the table-metadata encoding and, with it, the
// instantiation of the SWP primitives the ciphertext was written under:
// a change to either bumps it, so that ciphertext no trapdoor of this
// build can match is refused instead of silently matching nothing.
const metaVersion = 5

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

// randomPerm draws a uniformly random permutation of [0, n) from one
// crypto/rand read.
func randomPerm(n int) ([]int, error) {
	rnd := make([]byte, 8*max(n-1, 0))
	if _, err := rand.Read(rnd); err != nil {
		return nil, fmt.Errorf("core: drawing permutation: %w", err)
	}
	perm := make([]int, n)
	return perm, shuffle(perm, rnd)
}

// shuffle sets perm to a uniformly random permutation of [0, len(perm))
// (Fisher–Yates), from rnd: 8(len(perm)−1) bytes of crypto/rand output, a
// uint64 per swap. Encryption-side randomness must not come from a
// seedable generator, or ciphertext order would become a side channel.
// Each uint64 is mapped to [0, i] by rejection: v is kept only at or above
// 2^64 mod (i+1), so that v mod (i+1) is exactly uniform. A rejection —
// probability below (i+1)/2^64 — redraws that uint64 from crypto/rand.
func shuffle(perm []int, rnd []byte) error {
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		bound := uint64(i + 1)
		v := rnd[8*(i-1) : 8*i]
		for binary.LittleEndian.Uint64(v) < -bound%bound {
			if _, err := rand.Read(v); err != nil {
				return fmt.Errorf("core: drawing permutation: %w", err)
			}
		}
		j := binary.LittleEndian.Uint64(v) % bound
		perm[i], perm[j] = perm[j], perm[i]
	}
	return nil
}
