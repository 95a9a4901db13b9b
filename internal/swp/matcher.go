package swp

import (
	"encoding/binary"

	"repro/internal/crypto"
)

// Matcher is the allocation-free form of the server-side match test. It
// precomputes everything derivable from a (Params, Trapdoor) pair once —
// geometry checks, F keyed by the trapdoor's word key, X's stream and
// checksum parts as machine words — and carries the per-evaluation
// scratch, so MatchRun and Match perform zero heap allocations per call.
// One Matcher amortises that setup over an entire table scan, which is
// exactly the server's hot path: every exact-select tests one trapdoor
// against every cipherword of every tuple.
//
// One kernel serves every stream width. F is CBC-MAC over the stream
// chunk: a word's first stream block, built straight from 64-bit loads of
// the cipherword, fills the next block of a run from the words of
// consecutive documents, and a full run is encrypted in one crypto.AES256
// call per stream block, each block taking its word's next chunk of C ⊕ X
// between calls, as BlockPRF.SumAllInto advances its chains. A stream of
// at most one AES block (n−m <= 16) is one call per run.
//
// A Matcher is NOT safe for concurrent use (the run is reused across
// calls); hand each worker goroutine its own instance via Clone.
// Everything a match writes — the run's blocks, owners and words — sits
// on cache lines no other Matcher touches (see kernel), so workers
// scanning side by side never take a line from each other.
type Matcher struct {
	p Params

	// Where a word's first stream block and its checksum lie, whether
	// both lie in the word's first and last eight bytes (8 <= n <= 16 and
	// m <= 8, emp's shape among them), X (the trapdoor's own slice, which
	// a stream's later blocks are read from) and its parts as the fields
	// load them, and the padded allocation holding F's key schedule and
	// the run; k is nil on an ill-formed pair.
	stream, sum field
	short       bool
	x           []byte
	x0, x1      uint64 // X's first stream block
	xs0, xs1    uint64 // X's checksum part
	k           *kernel
}

// runBlocks is how many blocks the run kernel encrypts in one call: four
// of AES256's eight-block groups, so a call's fixed cost is spread thin
// and an emp tuple's three words rarely straddle a flush.
const runBlocks = 32

// kernel is the Matcher's one allocation: F's key schedule, which every
// match reads, and the run it encrypts, which every match writes, with a
// cache line of padding on each side so that no other Matcher's state
// shares a line with either.
type kernel struct {
	_      [cacheLine]byte
	aes    crypto.AES256
	blocks [runBlocks][crypto.BlockPRFSize]byte
	owner  [runBlocks]owner
	word   [runBlocks][]byte // the cipherword behind a block, for the stream's later blocks
	_      [cacheLine]byte
}

// owner is what a run remembers of the word behind a block: its
// document's index and the checksum part of C ⊕ X, as the sum field
// loads it.
type owner struct {
	doc          int
	want0, want1 uint64
}

// field locates a run of at most 16 bytes inside a word as the two
// little-endian halves of its zero-padded block: half h is
// Uint64(w[off[h]:]) >> shift[h] & mask[h]. Every load reads eight bytes
// inside the word (or the 16-byte copy a word shorter than eight bytes is
// padded into), so a field costs two loads whatever its width, with no
// branch and no copy.
type field struct {
	off   [2]int
	shift [2]uint
	mask  [2]uint64
}

// newField locates bytes [at, at+l) of a wl-byte word.
func newField(wl, at, l int) field {
	if wl < 8 {
		wl = 16 // loaded from the padded copy
	}
	var f field
	for h := range 2 {
		start := at + 8*h
		f.off[h] = min(start, wl-8)
		f.shift[h] = uint(8 * (start - f.off[h]))
		f.mask[h] = ^uint64(0) >> (64 - 8*min(max(l-8*h, 0), 8))
	}
	return f
}

// load returns the field of w as the halves of its zero-padded block.
func (f *field) load(w []byte) (lo, hi uint64) {
	return f.cut(binary.LittleEndian.Uint64(w[f.off[0]:]), 0), f.cut(binary.LittleEndian.Uint64(w[f.off[1]:]), 1)
}

// cut returns half h of the field from the eight bytes at off[h]. A shift
// of 64 or more only ever meets a zero mask, so it is taken mod 64.
func (f *field) cut(v uint64, h int) uint64 {
	return v >> (f.shift[h] & 63) & f.mask[h]
}

// NewMatcher builds a Matcher for the trapdoor. An ill-formed pair (bad
// trapdoor lengths, bad parameters) yields a Matcher whose Match always
// reports false.
func NewMatcher(p Params, td Trapdoor) *Matcher {
	m := &Matcher{p: p}
	if p.Validate() != nil || len(td.X) != p.WordLen || len(td.K) != crypto.KeySize {
		return m
	}
	nm := p.streamLen()
	m.stream, m.sum = newField(p.WordLen, 0, min(nm, crypto.BlockPRFSize)), newField(p.WordLen, nm, p.ChecksumLen)
	last := p.WordLen - 8
	m.short = p.WordLen >= 8 && m.stream.off == [2]int{0, last} && m.sum.off == [2]int{last, last}
	var pad [16]byte
	m.x = td.X
	x := m.padded(td.X, &pad)
	m.x0, m.x1 = m.stream.load(x)
	m.xs0, m.xs1 = m.sum.load(x)
	m.k = &kernel{aes: crypto.NewAES256(crypto.KeyFromBytes(td.K))}
	return m
}

// padded returns w, or — for a word under eight bytes — w copied into
// pad, so that every field load stays in bounds.
func (m *Matcher) padded(w []byte, pad *[16]byte) []byte {
	if m.p.WordLen >= 8 {
		return w
	}
	copy(pad[:], w)
	return pad[:]
}

// cacheLine is the coherence granule per-worker state is padded to: 64
// bytes on amd64 and arm64.
const cacheLine = 64

// Clone returns an independent Matcher for the same trapdoor. It copies
// or shares the trapdoor's expanded AES key and allocates only its own
// run, so provisioning one per worker goroutine of a table scan is
// nearly free.
func (m *Matcher) Clone() *Matcher {
	c := *m
	if m.k != nil {
		c.k = &kernel{aes: m.k.aes}
	}
	return &c
}

// Match reports whether the ciphertext word matches the trapdoor: whether
// C ⊕ X has the form ⟨s, F_k(s)⟩. It uses no secret keys — only trapdoor
// material — and performs no heap allocations. A non-matching word passes
// with probability 2^(-8m) (a false positive). It is MatchRun on one
// one-word document.
func (m *Matcher) Match(cipherword []byte) bool {
	if m.k == nil {
		return false
	}
	r := run{m: m, last: -1}
	r.add(0, [][]byte{cipherword})
	r.flush()
	return r.last == 0
}

// MatchRun is ψ over a run of n documents, doc(i) returning document i's
// words: it appends to hits, once each and in ascending order, the index
// i of every document any of whose words matches the trapdoor. Words of
// another length than the trapdoor's never match, which is how a
// mixed-width document skips the columns it cannot hold. It fills up to
// runBlocks blocks from the words of consecutive documents, whatever
// document boundaries fall between them, and runs F over each full run
// before comparing any checksum. It allocates nothing beyond growing
// hits.
func (m *Matcher) MatchRun(n int, doc func(i int) [][]byte, hits []int) []int {
	if m.k == nil {
		return hits
	}
	r := run{m: m, hits: hits, keep: true, last: -1}
	for i := 0; i < n; i++ {
		r.add(i, doc(i))
	}
	r.flush()
	return r.hits
}

// run is one pass of the kernel over a valid Matcher: the document
// reported last, the hits so far if it keeps them, and the number of
// blocks filled. Match keeps no hits — last says whether its one word
// matched — so its stack slice never escapes.
type run struct {
	m    *Matcher
	hits []int
	keep bool
	last int // -1 before the first hit
	j    int // blocks of m.k filled
	pad  [16]byte
}

// add queues the words of document doc: each of the trapdoor's length
// fills the next block of the run with its first stream block.
func (r *run) add(doc int, words [][]byte) {
	m, k := r.m, r.m.k
	wl := m.p.WordLen
	for _, w := range words {
		if len(w) != wl {
			continue
		}
		j := r.j
		var s0, s1, c0, c1 uint64
		if m.short {
			// The fields read only the first and last eight bytes: the
			// stream's low half is the first eight masked, and the
			// checksum is the last m bytes, whole, so two loads serve
			// all four halves. Against the four field loads below this
			// is ~0.78× the per-tuple cost of an emp scan and ~1.28× the
			// ops of the cold-scan benchmark on a 2-vCPU Xeon.
			a, z := binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[len(w)-8:])
			s0, s1, c0 = a&m.stream.mask[0], m.stream.cut(z, 1), z>>(m.sum.shift[0]&63)
		} else {
			// Every stream wider than a block takes this branch (n >= 18),
			// so the two-load path need not keep its word. The kept word
			// is the caller's, never the padded copy, so r stays on the
			// stack.
			k.word[j] = w
			pw := m.padded(w, &r.pad)
			s0, s1 = m.stream.load(pw)
			c0, c1 = m.sum.load(pw)
		}
		binary.LittleEndian.PutUint64(k.blocks[j][:8], s0^m.x0)
		binary.LittleEndian.PutUint64(k.blocks[j][8:], s1^m.x1)
		k.owner[j] = owner{doc: doc, want0: c0 ^ m.xs0, want1: c1 ^ m.xs1}
		if r.j = j + 1; r.j == runBlocks {
			r.flush()
		}
	}
}

// hit reports doc unless the run reported it last: documents arrive in
// ascending order, so a document whose words match twice is reported
// once.
func (r *run) hit(doc int) {
	if doc == r.last {
		return
	}
	r.last = doc
	if r.keep {
		r.hits = append(r.hits, doc)
	}
}

// flush runs F over the filled blocks, one EncryptBlocks call per stream
// block: after each call but the last, every block takes its word's next
// chunk of C ⊕ X, zero-padded to a block. It then reports the document of
// every block whose output's first m bytes, masked as the sum field masks
// a checksum, equal its word's. The compare is two whole-word XORs ORed
// together, with no branch on any byte: F's output derives from trapdoor
// key material, and an early exit would leak how many leading checksum
// bytes a crafted cipherword matched, giving an adaptive adversary a
// byte-at-a-time oracle against F_k.
func (r *run) flush() {
	m, k := r.m, r.m.k
	blocks := k.blocks[:r.j]
	k.aes.EncryptBlocks(blocks)
	for at, nm := crypto.BlockPRFSize, m.p.streamLen(); at < nm; at += crypto.BlockPRFSize {
		f := newField(m.p.WordLen, at, min(nm-at, crypto.BlockPRFSize))
		x0, x1 := f.load(m.x)
		for b := range blocks {
			s0, s1 := f.load(k.word[b])
			binary.LittleEndian.PutUint64(blocks[b][:8], binary.LittleEndian.Uint64(blocks[b][:8])^s0^x0)
			binary.LittleEndian.PutUint64(blocks[b][8:], binary.LittleEndian.Uint64(blocks[b][8:])^s1^x1)
		}
		k.aes.EncryptBlocks(blocks)
	}
	for b := range blocks {
		o := &k.owner[b]
		f0 := binary.LittleEndian.Uint64(blocks[b][:8]) & m.sum.mask[0]
		f1 := binary.LittleEndian.Uint64(blocks[b][8:]) & m.sum.mask[1]
		if (f0^o.want0)|(f1^o.want1) == 0 {
			r.hit(o.doc)
		}
	}
	r.j = 0
}

// Search appends the positions of all cipherwords matching the trapdoor to
// hits and returns the extended slice: MatchRun over one-word documents.
// Passing a reused hits[:0] keeps a whole scan allocation-free once the
// slice has grown to its working size.
func (m *Matcher) Search(cipherwords [][]byte, hits []int) []int {
	return m.MatchRun(len(cipherwords), func(i int) [][]byte { return cipherwords[i : i+1] }, hits)
}
