package swp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/crypto"
)

// Matcher is the allocation-free form of the server-side match test. It
// precomputes everything derivable from a (Params, Trapdoor) pair once —
// geometry checks, F keyed by the trapdoor's word key, X's stream and
// checksum parts as machine words — and carries the per-evaluation
// scratch, so MatchStrided, MatchRun and Match perform zero heap
// allocations per call. One Matcher amortises that setup over an entire
// table scan, which is exactly the server's hot path: every exact-select
// tests one trapdoor against every cipherword of every tuple.
//
// One pass serves both forms — MatchStrided over a slab run's bytes,
// MatchRun over tuple-form words — and every stream width: up to
// runBlocks words of the trapdoor's length, of which it keeps only where
// each lies. F is CBC-MAC over the stream chunk: each word's first stream
// block, from 64-bit loads of the word, fills a block of the pass, which
// is encrypted in one crypto.AES256 call per stream block, each block
// taking its word's next chunk of C ⊕ X, reloaded from the word, between
// calls; the compare then reloads each word's checksum part. On amd64
// with AES-NI the short shape (8 <= n <= 16 and m <= 8, every benchmark
// table's) runs the pass in one fused assembly kernel: eight words
// loaded, X XORed in and the stream block shuffled out in registers,
// AES's 14 rounds eight-wide, the checksum reloaded, masked and
// compared, and a hit mask returned.
//
// A Matcher is NOT safe for concurrent use (the pass scratch is reused
// across calls); hand each worker goroutine its own instance via Clone.
// Everything a match writes — the pass's blocks, offsets, words and
// stage — sits on cache lines no other Matcher touches (see kernel), so
// workers scanning side by side never take a line from each other.
type Matcher struct {
	p Params

	// Where a word's first stream block and its checksum lie, whether
	// both lie in the word's first and last eight bytes (8 <= n <= 16 and
	// m <= 8, emp's shape among them), X (the trapdoor's own slice, which
	// a stream's later blocks are read from) and its parts as the fields
	// load them, and the padded allocation holding F's key schedule and
	// the pass; k is nil on an ill-formed pair.
	stream, sum field
	short       bool
	x           []byte
	x0, x1      uint64 // X's first stream block
	xs0, xs1    uint64 // X's checksum part
	// fused says the short shape runs on the fused kernel, which reads
	// fc; it is false off amd64, under purego, in FIPS 140-3 mode and on
	// a CPU without AES-NI, SSSE3 and SSE4.1.
	fused bool
	fc    fusedConsts
	k     *kernel
	// own is the kernel this Matcher came from the pool with, kept
	// whether or not the pair is well-formed, so that Release hands
	// both back together.
	own *kernel
}

// fusedConsts is what the fused kernel reads of a short-shape trapdoor,
// in the order the assembly loads it.
type fusedConsts struct {
	x       [16]byte // X's first and last eight bytes, as a word is loaded
	ctl     [16]byte // the PSHUFB control taking the stream block out of a load
	sumMask uint64   // F's output's first m bytes
	shift   uint64   // 8(8−m): the checksum's place in a word's last eight bytes
}

// matcherPool recycles Matchers with their kernels: a scan's setup is
// then a key expansion into memory that is already there, and its
// per-worker clones cost nothing. It holds a few kilobytes a worker —
// never a token or a view of a table, which Release drops.
var matcherPool = sync.Pool{New: func() any { return &Matcher{own: new(kernel)} }}

// runBlocks is how many words a pass encrypts in one call: four of
// AES256's eight-block groups, so a call's fixed cost is spread thin and
// an emp tuple's three words rarely straddle a pass.
const runBlocks = 32

// kernel is the Matcher's one allocation: F's key schedule, which every
// match reads, and the pass it encrypts, which every match writes — its
// blocks, and where each block's word lies: its offset, its tuple-form
// slice, or its first and last eight bytes in the stage — with a cache
// line of padding on each side so that no other Matcher's state shares a
// line with any of it.
type kernel struct {
	_      [cacheLine]byte
	aes    crypto.AES256
	blocks [runBlocks][crypto.BlockPRFSize]byte
	offs   [runBlocks]int
	word   [runBlocks][]byte
	stage  [runBlocks * 16]byte
	_      [cacheLine]byte
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

// NewMatcher builds a Matcher for the trapdoor, from a pool: Release
// returns it once its scan is over. An ill-formed pair (bad trapdoor
// lengths, bad parameters) yields a Matcher whose Match always reports
// false. The Matcher keeps td.X as it is, not a copy, so the trapdoor
// must outlive it — until Release, or for good when it is never
// released.
func NewMatcher(p Params, td Trapdoor) *Matcher {
	m := matcherPool.Get().(*Matcher)
	*m = Matcher{p: p, own: m.own}
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
	m.k = m.own
	m.k.aes.Rekey(crypto.KeyFromBytes(td.K))
	if m.fused = m.short && fusedKernel && m.k.aes.RoundKeys() != nil; m.fused {
		copy(m.fc.x[:8], td.X)
		copy(m.fc.x[8:], td.X[last:])
		for i := range m.fc.ctl {
			if m.fc.ctl[i] = 0x80; i < nm { // PSHUFB writes a zero from n−m on
				m.fc.ctl[i] = byte(i + (16-p.WordLen)*(i/8)) // byte i of the first eight, or i−(n−8) of the last
			}
		}
		m.fc.sumMask, m.fc.shift = m.sum.mask[0], uint64(m.sum.shift[0])
	}
	return m
}

// Release returns the Matcher to the pool NewMatcher and Clone draw
// from. The caller must be done with it; its clones are Matchers of
// their own, released or not on their own. It drops what the Matcher
// saw — the trapdoor and the last pass's tuple-form words — so that the
// pool keeps no view of a request or a table alive. A Matcher that is
// never released is garbage like any other.
func (m *Matcher) Release() {
	own := m.own
	if own == nil {
		return
	}
	clear(own.word[:])
	*m = Matcher{own: own}
	matcherPool.Put(m)
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

// Clone returns an independent Matcher for the same trapdoor, from the
// pool NewMatcher draws from. It copies the trapdoor's expanded AES key
// into a kernel of its own, so provisioning one per worker goroutine of
// a table scan costs a copy and, once the pool holds one, no allocation.
func (m *Matcher) Clone() *Matcher {
	c := matcherPool.Get().(*Matcher)
	own := c.own
	*c = *m
	c.own = own
	if m.k != nil {
		c.k = own
		own.aes = m.k.aes
	}
	return c
}

// Match reports whether the ciphertext word matches the trapdoor: whether
// C ⊕ X has the form ⟨s, F_k(s)⟩. It uses no secret keys — only trapdoor
// material — and performs no heap allocations. A non-matching word passes
// with probability 2^(-8m) (a false positive). It is a portable pass of
// one word: a lone word gains nothing from encrypting eight at a time.
func (m *Matcher) Match(cipherword []byte) bool {
	if m.k == nil || len(cipherword) != m.p.WordLen {
		return false
	}
	m.k.offs[0] = 0
	return m.portable(cipherword, 1) != 0
}

// MatchStrided is ψ over documents laid out at a constant stride in body,
// as a run of a table slab lays its tuples out: each document's words lie
// back to back from byte at of its stride, their lengths in lens. With
// rows nil, body holds len(body)/stride documents, at positions base,
// base+1, …; otherwise the documents are those at the positions in rows,
// ascending, the one at position p at body[(p−base)·stride:]. It appends
// to hits, once each and in ascending order, the position of every
// document any of whose words matches the trapdoor.
//
// Words of another length than the trapdoor's never match, so it counts
// the q words of the trapdoor's length among lens once and reads them
// straight from body: block j of the run's words belongs to document
// j / q, so a pass keeps of each word only its offset. Every address it
// reads follows from the public stride, offsets and positions alone. It
// allocates nothing beyond growing hits.
func (m *Matcher) MatchStrided(body []byte, stride, at int, lens []int, base int, rows []int, hits []int) []int {
	wl, q, end := m.p.WordLen, 0, at
	for _, l := range lens {
		if l == wl {
			q++
		}
		end += l
	}
	if m.k == nil || q == 0 {
		return hits
	}
	if at < 0 || end > stride {
		panic(fmt.Sprintf("swp: words [%d, %d) outside a %d-byte stride", at, end, stride))
	}
	n, docs := len(body)/stride, len(rows)
	if rows == nil {
		docs = n
	}
	f := found{hits: hits, last: -1}
	emit := func(mask uint32, first int) { // block b is word first+b of the run
		for ; mask != 0; mask &= mask - 1 {
			d := (first + bits.TrailingZeros32(mask)) / q
			if rows != nil {
				f.add(rows[d])
			} else {
				f.add(base + d)
			}
		}
	}
	offs, d, j := &m.k.offs, 0, 0
	unit := q // the words of a pass of whole documents: whole groups of eight for the fused kernel
	for m.fused && unit%8 != 0 {
		unit += q
	}
	if rows == nil && unit <= runBlocks {
		// Every pass of per/q whole documents has the offsets of the
		// first, relative to its first document: they are filled once.
		per := runBlocks / unit * unit
		for i := range per / q {
			o := i*stride + at
			for _, l := range lens {
				if l == wl {
					offs[j], j = o, j+1
				}
				o += l
			}
		}
		for j = 0; d+per/q <= n; d += per / q {
			emit(m.pass(body[d*stride:], wl-8, per), d*q)
		}
	}
	first := d * q
	for ; d < docs; d++ {
		row := d
		if rows != nil {
			if row = rows[d] - base; uint(row) >= uint(n) {
				panic(fmt.Sprintf("swp: position %d outside the %d documents from %d", rows[d], n, base))
			}
		}
		o := row*stride + at
		for _, l := range lens {
			if l == wl {
				offs[j] = o
				if j++; j == runBlocks {
					emit(m.pass(body, wl-8, j), first)
					j, first = 0, first+runBlocks
				}
			}
			o += l
		}
	}
	emit(m.pass(body, wl-8, j), first)
	return f.hits
}

// found is a scan's hits and the one appended last: documents arrive in
// ascending order, so add appends a document whose words match twice
// once.
type found struct {
	hits []int
	last int
}

func (f *found) add(p int) {
	if p != f.last {
		f.hits, f.last = append(f.hits, p), p
	}
}

// MatchRun is ψ over a run of n documents in tuple form, doc(i) returning
// document i's words: it appends to hits, once each and in ascending
// order, the index i of every document any of whose words matches the
// trapdoor. Words of another length than the trapdoor's never match,
// which is how a mixed-width document skips the columns it cannot hold.
// It queues the words of the trapdoor's length, whatever document
// boundaries fall between them — their slices, or for the fused kernel
// their first and last eight bytes, staged in slots of 16 — and runs
// MatchStrided's pass over every runBlocks of them. It allocates nothing
// beyond growing hits.
func (m *Matcher) MatchRun(n int, doc func(i int) [][]byte, hits []int) []int {
	if m.k == nil {
		return hits
	}
	k, wl := m.k, m.p.WordLen
	f := found{hits: hits, last: -1}
	var docs [runBlocks]int // the document of each queued word
	emit := func(mask uint32) {
		for ; mask != 0; mask &= mask - 1 {
			f.add(docs[bits.TrailingZeros32(mask)])
		}
	}
	var stage []byte // nil: the pass reads k.word
	if m.fused {
		stage = k.stage[:]
	}
	j := 0
	for i := 0; i < n; i++ {
		for _, w := range doc(i) {
			if len(w) != wl {
				continue
			}
			if stage != nil {
				binary.LittleEndian.PutUint64(stage[16*j:], binary.LittleEndian.Uint64(w))
				binary.LittleEndian.PutUint64(stage[16*j+8:], binary.LittleEndian.Uint64(w[wl-8:]))
				k.offs[j] = 16 * j
			} else {
				k.word[j] = w
			}
			if docs[j] = i; j+1 == runBlocks {
				emit(m.pass(stage, 8, runBlocks))
				j = -1
			}
			j++
		}
	}
	emit(m.pass(stage, 8, j))
	return f.hits
}

// pass runs ψ over the count words of the trapdoor's length at
// body[k.offs[b]:], b < count — or, with body nil, at k.word[b] — and
// returns the mask of those that match, bit b for block b. The fused
// kernel, which reads a word's last eight bytes at zoff past its offset,
// takes the pass in groups of eight, the last one filled out with the
// first word and its bits dropped; otherwise the portable pass runs.
func (m *Matcher) pass(body []byte, zoff, count int) uint32 {
	if !m.fused || count == 0 {
		return m.portable(body, count)
	}
	offs, groups := &m.k.offs, (count+7)/8
	for b := count; b < 8*groups; b++ {
		offs[b] = offs[0]
	}
	return matchShortAESNI(m.k.aes.RoundKeys(), &body[0], &offs[0], groups, &m.fc, zoff) & uint32(uint64(1)<<count-1)
}

// word is block b's word: at body[k.offs[b]:], or k.word[b] when body is
// nil.
func (m *Matcher) word(body []byte, b int) []byte {
	if body == nil {
		return m.k.word[b]
	}
	o := m.k.offs[b]
	return body[o : o+m.p.WordLen]
}

// portable is the pass in Go: each word's first stream block ⊕ X into
// its block, then F over the blocks, one EncryptBlocks call per stream
// block — after each call but the last, every block takes its word's
// next chunk of C ⊕ X, zero-padded to a block and reloaded from the word
// — and last the compare. The compare is two whole-word XORs ORed
// together, reduced to a bit with no branch on any byte: F's output
// derives from trapdoor key material, and an early exit would leak how
// many leading checksum bytes a crafted cipherword matched, giving an
// adaptive adversary a byte-at-a-time oracle against F_k. Only the mask
// of whole-block equalities leaves it.
func (m *Matcher) portable(body []byte, count int) uint32 {
	k := m.k
	blocks := k.blocks[:count]
	var pad [16]byte
	for b := range blocks {
		s0, s1 := m.stream.load(m.padded(m.word(body, b), &pad))
		binary.LittleEndian.PutUint64(blocks[b][:8], s0^m.x0)
		binary.LittleEndian.PutUint64(blocks[b][8:], s1^m.x1)
	}
	k.aes.EncryptBlocks(blocks)
	for at, nm := crypto.BlockPRFSize, m.p.streamLen(); at < nm; at += crypto.BlockPRFSize {
		f := newField(m.p.WordLen, at, min(nm-at, crypto.BlockPRFSize))
		x0, x1 := f.load(m.x)
		for b := range blocks {
			s0, s1 := f.load(m.word(body, b))
			binary.LittleEndian.PutUint64(blocks[b][:8], binary.LittleEndian.Uint64(blocks[b][:8])^s0^x0)
			binary.LittleEndian.PutUint64(blocks[b][8:], binary.LittleEndian.Uint64(blocks[b][8:])^s1^x1)
		}
		k.aes.EncryptBlocks(blocks)
	}
	var hit uint32
	for b := range blocks {
		c0, c1 := m.sum.load(m.padded(m.word(body, b), &pad))
		f0 := binary.LittleEndian.Uint64(blocks[b][:8]) & m.sum.mask[0]
		f1 := binary.LittleEndian.Uint64(blocks[b][8:]) & m.sum.mask[1]
		d := (f0 ^ c0 ^ m.xs0) | (f1 ^ c1 ^ m.xs1)
		hit |= uint32((d|-d)>>63^1) << b
	}
	return hit
}

// Search appends the positions of all cipherwords matching the trapdoor to
// hits and returns the extended slice: MatchRun over one-word documents.
// Passing a reused hits[:0] keeps a whole scan allocation-free once the
// slice has grown to its working size.
func (m *Matcher) Search(cipherwords [][]byte, hits []int) []int {
	return m.MatchRun(len(cipherwords), func(i int) [][]byte { return cipherwords[i : i+1] }, hits)
}
