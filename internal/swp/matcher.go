package swp

import (
	"crypto/hmac"
	"crypto/subtle"
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
// Streams of at most one AES block (n−m <= 16) take the run kernel: F is
// a single AES call on the zero-padded chunk, built straight from 64-bit
// loads of the cipherword, and MatchRun fills a run of blocks from the
// words of consecutive documents and encrypts the whole run in one
// crypto.AES256 call. Wider streams run F's CBC-MAC loop over t and got.
//
// A Matcher is NOT safe for concurrent use (the scratch and the PRF's
// chaining block are reused across calls); hand each worker goroutine its
// own instance via Clone. Everything a match writes — the run's blocks
// and owners, or t, got and the PRF's chaining block — sits on cache
// lines no other Matcher touches (see kernel, isolate and newScratch), so
// workers scanning side by side never take a line from each other.
type Matcher struct {
	p     Params
	valid bool // geometry checks passed at construction

	// Run kernel: where a word's stream and checksum parts lie, whether
	// both lie in the word's first and last eight bytes (8 <= n <= 16 and
	// m <= 8, emp's shape among them), X's parts as the fields load them,
	// and the padded allocation holding F's key schedule and the run; k is
	// nil on a wide stream.
	stream, sum field
	short       bool
	x0, x1      uint64 // X's stream part
	xs0, xs1    uint64 // X's checksum part
	k           *kernel

	// CBC-MAC path, streams wider than one block.
	x    []byte           // trapdoor pre-encryption, WordLen bytes
	kprf *crypto.BlockPRF // checksum PRF F keyed by the trapdoor word key
	t    []byte           // scratch: C ⊕ X = ⟨candidate stream chunk, implied checksum⟩
	got  []byte           // scratch: recomputed checksum, m bytes
}

// runBlocks is how many blocks the run kernel encrypts in one call: four
// of AES256's eight-block groups, so a call's fixed cost is spread thin
// and an emp tuple's three words rarely straddle a flush.
const runBlocks = 32

// kernel is the run kernel's one allocation: F's key schedule, which
// every match reads, and the run it encrypts, which every match writes,
// with a cache line of padding on each side so that no other Matcher's
// state shares a line with either.
type kernel struct {
	_      [cacheLine]byte
	aes    crypto.AES256
	blocks [runBlocks][crypto.BlockPRFSize]byte
	owner  [runBlocks]owner
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
// reports false, mirroring the behaviour of the package-level Match.
func NewMatcher(p Params, td Trapdoor) *Matcher {
	m := &Matcher{p: p}
	if p.Validate() != nil || len(td.X) != p.WordLen || len(td.K) != crypto.KeySize {
		return m
	}
	m.valid = true
	key := crypto.KeyFromBytes(td.K)
	nm := p.streamLen()
	if nm > crypto.BlockPRFSize {
		m.x = td.X
		m.kprf = isolate(crypto.NewBlockPRF(key, nm))
		m.newScratch()
		return m
	}
	m.stream, m.sum = newField(p.WordLen, 0, nm), newField(p.WordLen, nm, p.ChecksumLen)
	last := p.WordLen - 8
	m.short = p.WordLen >= 8 && m.stream.off == [2]int{0, last} && m.sum.off == [2]int{last, last}
	var pad [16]byte
	x := m.padded(td.X, &pad)
	m.x0, m.x1 = m.stream.load(x)
	m.xs0, m.xs1 = m.sum.load(x)
	m.k = &kernel{aes: crypto.NewAES256(key)}
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

// isolate moves a PRF — whose chaining block every wide-stream match
// rewrites — to the middle of an allocation with a cache line of padding
// on each side. The allocator packs small objects back to back, so
// without the pads one worker's chaining block lands on the line its
// neighbour reads its own PRF from, and every AES call takes that line
// away from the other core. A full line on each side keeps every line the
// PRF occupies inside this allocation however the allocator aligns it.
func isolate(f crypto.BlockPRF) *crypto.BlockPRF {
	p := &struct {
		_ [cacheLine]byte
		f crypto.BlockPRF
		_ [cacheLine]byte
	}{f: f}
	return &p.f
}

// newScratch allocates a wide-stream Matcher's t and got in a single
// allocation padded the same way.
func (m *Matcher) newScratch() {
	n, cs := m.p.WordLen, m.p.ChecksumLen
	buf := make([]byte, cacheLine+n+cs+cacheLine)
	m.t = buf[cacheLine : cacheLine+n : cacheLine+n]
	m.got = buf[cacheLine+n:][:cs:cs]
}

// Clone returns an independent Matcher for the same trapdoor. It copies
// or shares the trapdoor's expanded AES key and allocates only its own
// scratch, so provisioning one per worker goroutine of a table scan is
// nearly free.
func (m *Matcher) Clone() *Matcher {
	c := *m
	switch {
	case m.k != nil:
		c.k = &kernel{aes: m.k.aes}
	case m.kprf != nil:
		c.kprf = isolate(m.kprf.Clone())
		c.newScratch()
	}
	return &c
}

// Match reports whether the ciphertext word matches the trapdoor: whether
// C ⊕ X has the form ⟨s, F_k(s)⟩. It uses no secret keys — only trapdoor
// material — and performs no heap allocations. A non-matching word passes
// with probability 2^(-8m) (a false positive). It is MatchRun on one
// one-word document.
func (m *Matcher) Match(cipherword []byte) bool {
	if !m.valid {
		return false
	}
	r := run{m: m, last: -1}
	r.add(0, [][]byte{cipherword})
	r.close()
	return r.last == 0
}

// MatchRun is ψ over a run of n documents, doc(i) returning document i's
// words: it appends to hits, once each and in ascending order, the index
// i of every document any of whose words matches the trapdoor. Words of
// another length than the trapdoor's never match, which is how a
// mixed-width document skips the columns it cannot hold. On a one-block
// stream it fills up to runBlocks blocks from the words of consecutive
// documents, whatever document boundaries fall between them, and
// encrypts each full run in one call before comparing any checksum. It
// allocates nothing beyond growing hits.
func (m *Matcher) MatchRun(n int, doc func(i int) [][]byte, hits []int) []int {
	if !m.valid {
		return hits
	}
	r := run{m: m, hits: hits, keep: true, last: -1}
	for i := 0; i < n; i++ {
		r.add(i, doc(i))
	}
	r.close()
	return r.hits
}

// run is one pass of the kernel over a valid Matcher: the document
// reported last, the hits so far if it keeps them, and on a one-block
// stream the number of blocks filled. Match keeps no hits — last says
// whether its one word matched — so its stack slice never escapes.
type run struct {
	m    *Matcher
	hits []int
	keep bool
	last int // -1 before the first hit
	j    int // blocks of m.k filled
	pad  [16]byte
}

// add tests the words of document doc: each at once on a wide stream;
// on a one-block one, each fills the next block of the run.
func (r *run) add(doc int, words [][]byte) {
	m, k := r.m, r.m.k
	wl := m.p.WordLen
	if k == nil {
		for _, w := range words {
			if len(w) == wl && m.matchWide(w) {
				r.hit(doc)
			}
		}
		return
	}
	for _, w := range words {
		if len(w) != wl {
			continue
		}
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
			w = m.padded(w, &r.pad)
			s0, s1 = m.stream.load(w)
			c0, c1 = m.sum.load(w)
		}
		j := r.j
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

// flush runs F over the filled blocks in one call and reports the
// document of every block whose output's first m bytes, masked as the
// sum field masks a checksum, equal its word's. The compare is two
// whole-word XORs ORed together, with no branch on any byte: F's output
// derives from trapdoor key material, and an early exit would leak how
// many leading checksum bytes a crafted cipherword matched, giving an
// adaptive adversary a byte-at-a-time oracle against F_k.
func (r *run) flush() {
	m, k := r.m, r.m.k
	k.aes.EncryptBlocks(k.blocks[:r.j])
	for b := range k.blocks[:r.j] {
		o := &k.owner[b]
		f0 := binary.LittleEndian.Uint64(k.blocks[b][:8]) & m.sum.mask[0]
		f1 := binary.LittleEndian.Uint64(k.blocks[b][8:]) & m.sum.mask[1]
		if (f0^o.want0)|(f1^o.want1) == 0 {
			r.hit(o.doc)
		}
	}
	r.j = 0
}

// close flushes a one-block run's last blocks.
func (r *run) close() {
	if r.m.k != nil {
		r.flush()
	}
}

// matchWide is the match test on a stream wider than one block: F's
// CBC-MAC loop over C ⊕ X in t.
func (m *Matcher) matchWide(cipherword []byte) bool {
	subtle.XORBytes(m.t, cipherword, m.x)
	nm := len(m.t) - len(m.got)
	m.kprf.SumInto(m.got, m.t[:nm])
	// Constant-time for the reason flush gives; hmac.Equal (crypto/subtle
	// underneath) examines every byte and allocates nothing.
	return hmac.Equal(m.got, m.t[nm:])
}

// Search appends the positions of all cipherwords matching the trapdoor to
// hits and returns the extended slice: MatchRun over one-word documents.
// Passing a reused hits[:0] keeps a whole scan allocation-free once the
// slice has grown to its working size.
func (m *Matcher) Search(cipherwords [][]byte, hits []int) []int {
	return m.MatchRun(len(cipherwords), func(i int) [][]byte { return cipherwords[i : i+1] }, hits)
}
