package swp

import (
	"crypto/hmac"
	"crypto/subtle"
	"encoding/binary"

	"repro/internal/crypto"
)

// Matcher is the allocation-free form of the server-side match test. It
// precomputes everything derivable from a (Params, Trapdoor) pair once —
// geometry checks, the checksum PRF keyed by the trapdoor's word key, X's
// stream part as two machine words — and carries the per-evaluation
// scratch, so Match and MatchAny perform zero heap allocations per call.
// One Matcher amortises that setup over an entire table scan, which is
// exactly the server's hot path: every exact-select tests one trapdoor
// against every cipherword of every tuple.
//
// Streams of at most one AES block (n−m <= 16) take the one-block kernel:
// F is a single AES call on the zero-padded chunk, built straight from two
// 64-bit loads of the cipherword, and a tuple's words go through AES back
// to back (MatchAny). Wider streams run F's CBC-MAC loop over t and got.
//
// A Matcher is NOT safe for concurrent use (the scratch and the PRF's
// chaining block are reused across calls); hand each worker goroutine its
// own instance via Clone. Everything a match writes — the batch blocks, or
// t, got and the PRF's chaining block — sits on cache lines no other
// Matcher touches (see newScratch and isolate), so workers scanning side
// by side never take a line from each other.
type Matcher struct {
	p     Params
	x     []byte           // trapdoor pre-encryption, WordLen bytes
	kprf  *crypto.BlockPRF // checksum PRF F keyed by the trapdoor word key
	valid bool             // geometry checks passed at construction

	// One-block kernel: X's stream part, zero-padded, as stream loads it,
	// and the blocks a batch is encrypted in; nil on a wide stream.
	x0, x1 uint64
	blocks *[batch][crypto.BlockPRFSize]byte

	// CBC-MAC path, streams wider than one block.
	t   []byte // scratch: C ⊕ X = ⟨candidate stream chunk, implied checksum⟩
	got []byte // scratch: recomputed checksum, m bytes
}

// batch is how many words MatchAny sends through AES back to back: enough
// to cover a typical tuple and keep the AES unit busy while each call's
// rounds complete.
const batch = 4

// NewMatcher builds a Matcher for the trapdoor. An ill-formed pair (bad
// trapdoor lengths, bad parameters) yields a Matcher whose Match always
// reports false, mirroring the behaviour of the package-level Match.
func NewMatcher(p Params, td Trapdoor) *Matcher {
	m := &Matcher{p: p}
	if p.Validate() != nil || len(td.X) != p.WordLen || len(td.K) != crypto.KeySize {
		return m
	}
	m.valid = true
	m.x = td.X
	m.kprf = isolate(crypto.NewBlockPRF(crypto.KeyFromBytes(td.K), p.streamLen()))
	m.newScratch()
	if m.blocks != nil {
		m.x0, m.x1 = m.stream(m.x)
	}
	return m
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

// newScratch allocates the Matcher's scratch in a single allocation padded
// the same way: the batch blocks on a one-block stream, t and got on a
// wider one.
func (m *Matcher) newScratch() {
	if m.p.streamLen() <= crypto.BlockPRFSize {
		s := &struct {
			_      [cacheLine]byte
			blocks [batch][crypto.BlockPRFSize]byte
			_      [cacheLine]byte
		}{}
		m.blocks = &s.blocks
		return
	}
	n, cs := m.p.WordLen, m.p.ChecksumLen
	buf := make([]byte, cacheLine+n+cs+cacheLine)
	m.t = buf[cacheLine : cacheLine+n : cacheLine+n]
	m.got = buf[cacheLine+n:][:cs:cs]
}

// Clone returns an independent Matcher for the same trapdoor. It shares the
// trapdoor's expanded AES key and allocates only its own scratch, so
// provisioning one per worker goroutine of a table scan is nearly free.
func (m *Matcher) Clone() *Matcher {
	c := &Matcher{p: m.p, x: m.x, valid: m.valid, x0: m.x0, x1: m.x1}
	if !m.valid {
		return c
	}
	c.kprf = isolate(m.kprf.Clone())
	c.newScratch()
	return c
}

// Match reports whether the ciphertext word matches the trapdoor: whether
// C ⊕ X has the form ⟨s, F_k(s)⟩. It uses no secret keys — only trapdoor
// material — and performs no heap allocations. A non-matching word passes
// with probability 2^(-8m) (a false positive). It is MatchAny on one word.
func (m *Matcher) Match(cipherword []byte) bool {
	return m.MatchAny([][]byte{cipherword})
}

// MatchAny reports whether any of the words matches the trapdoor — ψ on
// one tuple. Words of another length than the trapdoor's never match,
// which is how a mixed-width document skips the columns it cannot hold.
// On a one-block stream it fills up to batch blocks from consecutive
// words and encrypts them back to back before comparing any checksum.
func (m *Matcher) MatchAny(words [][]byte) bool {
	if !m.valid {
		return false
	}
	n := m.p.WordLen
	if m.blocks == nil {
		for _, w := range words {
			if len(w) == n && m.matchWide(w) {
				return true
			}
		}
		return false
	}
	var in [batch][]byte // the word behind each filled block
	for len(words) > 0 {
		k := 0
		for ; len(words) > 0 && k < batch; words = words[1:] {
			if w := words[0]; len(w) == n {
				lo, hi := m.stream(w)
				binary.LittleEndian.PutUint64(m.blocks[k][:8], lo^m.x0)
				binary.LittleEndian.PutUint64(m.blocks[k][8:], hi^m.x1)
				in[k] = w
				k++
			}
		}
		m.kprf.SumBlocks(m.blocks[:k])
		for j, w := range in[:k] {
			if m.checksumIs(&m.blocks[j], w) {
				return true
			}
		}
	}
	return false
}

// stream loads a word's stream part w[:n−m] as the two little-endian
// halves of its zero-padded block, without copying it: the first eight
// bytes, masked to the stream's width, and — on a stream of more than
// eight bytes — the eight bytes ending at n−m, shifted down so that only
// bytes 8 … n−m−1 remain. Words under eight bytes are gathered byte by
// byte.
func (m *Matcher) stream(w []byte) (lo, hi uint64) {
	nm := m.p.streamLen()
	switch {
	case nm > 8:
		return binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[nm-8:]) >> (128 - 8*nm)
	case len(w) >= 8:
		return binary.LittleEndian.Uint64(w) & (^uint64(0) >> (64 - 8*nm)), 0
	}
	for i := nm - 1; i >= 0; i-- {
		lo = lo<<8 | uint64(w[i])
	}
	return lo, 0
}

// checksumIs reports whether F's output in b equals the checksum part of
// C ⊕ X for the word w. The comparison must be constant-time: b is PRF
// output derived from trapdoor key material, and an early exit would leak
// how many leading checksum bytes a crafted cipherword matched, giving an
// adaptive adversary a byte-at-a-time oracle against F_k. Every byte's
// difference is OR-ed in, with no branch on any of them.
func (m *Matcher) checksumIs(b *[crypto.BlockPRFSize]byte, w []byte) bool {
	nm := m.p.streamLen()
	x, w := m.x[nm:], w[nm:]
	var diff byte
	for i := range w {
		diff |= b[i] ^ w[i] ^ x[i]
	}
	return diff == 0
}

// matchWide is the match test on a stream wider than one block: F's
// CBC-MAC loop over C ⊕ X in t.
func (m *Matcher) matchWide(cipherword []byte) bool {
	subtle.XORBytes(m.t, cipherword, m.x)
	nm := len(m.t) - len(m.got)
	m.kprf.SumInto(m.got, m.t[:nm])
	// Constant-time for the reason checksumIs gives; hmac.Equal (crypto/
	// subtle underneath) examines every byte and allocates nothing.
	return hmac.Equal(m.got, m.t[nm:])
}

// Search appends the positions of all cipherwords matching the trapdoor to
// hits and returns the extended slice. Passing a reused hits[:0] keeps a
// whole scan allocation-free once the slice has grown to its working size.
func (m *Matcher) Search(cipherwords [][]byte, hits []int) []int {
	for i, cw := range cipherwords {
		if m.Match(cw) {
			hits = append(hits, i)
		}
	}
	return hits
}
