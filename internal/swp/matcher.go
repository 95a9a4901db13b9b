package swp

import (
	"crypto/hmac"
	"crypto/subtle"

	"repro/internal/crypto"
)

// Matcher is the allocation-free form of the server-side match test. It
// precomputes everything derivable from a (Params, Trapdoor) pair once —
// geometry checks, the checksum PRF keyed by the trapdoor's word key — and
// carries the per-evaluation scratch buffers, so Match performs zero heap
// allocations per call. One Matcher amortises that setup over an entire
// table scan, which is exactly the server's hot path: every exact-select
// tests one trapdoor against every cipherword of every tuple.
//
// A Matcher is NOT safe for concurrent use (the scratch buffers and the
// PRF's chaining block are reused across calls); hand each worker
// goroutine its own instance via Clone. Everything Match writes — t, got
// and the PRF's chaining block — sits on cache lines no other Matcher
// touches (see newScratch and isolate), so workers scanning side by side
// never take a line from each other.
type Matcher struct {
	p     Params
	x     []byte           // trapdoor pre-encryption, WordLen bytes
	kprf  *crypto.BlockPRF // checksum PRF F keyed by the trapdoor word key
	valid bool             // geometry checks passed at construction

	t   []byte // scratch: C ⊕ X = ⟨candidate stream chunk, implied checksum⟩
	got []byte // scratch: recomputed checksum, m bytes
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
	m.x = td.X
	nm := p.streamLen()
	m.kprf = isolate(crypto.NewBlockPRF(crypto.KeyFromBytes(td.K), nm))
	m.t, m.got = newScratch(p)
	return m
}

// cacheLine is the coherence granule per-worker state is padded to: 64
// bytes on amd64 and arm64.
const cacheLine = 64

// isolate moves a PRF — whose chaining block every Match rewrites — to
// the middle of an allocation with a cache line of padding on each side.
// The allocator packs small objects back to back, so without the pads one
// worker's chaining block lands on the line its neighbour reads its own
// PRF from, and every AES call takes that line away from the other core.
// A full line on each side keeps every line the PRF occupies inside this
// allocation however the allocator aligns it.
func isolate(f crypto.BlockPRF) *crypto.BlockPRF {
	p := &struct {
		_ [cacheLine]byte
		f crypto.BlockPRF
		_ [cacheLine]byte
	}{f: f}
	return &p.f
}

// newScratch allocates one Matcher's t and got out of a single buffer
// padded the same way.
func newScratch(p Params) (t, got []byte) {
	buf := make([]byte, cacheLine+p.WordLen+p.ChecksumLen+cacheLine)
	t = buf[cacheLine : cacheLine+p.WordLen : cacheLine+p.WordLen]
	got = buf[cacheLine+p.WordLen:][:p.ChecksumLen:p.ChecksumLen]
	return t, got
}

// Clone returns an independent Matcher for the same trapdoor. It shares the
// trapdoor's expanded AES key and allocates only its own scratch, so
// provisioning one per worker goroutine of a table scan is nearly free.
func (m *Matcher) Clone() *Matcher {
	c := &Matcher{p: m.p, x: m.x, valid: m.valid}
	if !m.valid {
		return c
	}
	c.kprf = isolate(m.kprf.Clone())
	c.t, c.got = newScratch(m.p)
	return c
}

// Match reports whether the ciphertext word matches the trapdoor: whether
// C ⊕ X has the form ⟨s, F_k(s)⟩. It uses no secret keys — only trapdoor
// material — and performs no heap allocations. A non-matching word passes
// with probability 2^(-8m) (a false positive).
func (m *Matcher) Match(cipherword []byte) bool {
	if !m.valid || len(cipherword) != m.p.WordLen {
		return false
	}
	subtle.XORBytes(m.t, cipherword, m.x)
	nm := len(m.t) - len(m.got)
	m.kprf.SumInto(m.got, m.t[:nm])
	// The checksum comparison must be constant-time: got is PRF output
	// derived from trapdoor key material, and an early-exit bytes.Equal
	// would leak how many leading checksum bytes a crafted cipherword
	// matched, giving an adaptive adversary a byte-at-a-time oracle
	// against F_k. hmac.Equal (crypto/subtle underneath) examines every
	// byte regardless of where the first mismatch falls, and allocates
	// nothing, preserving Match's 0 allocs/op contract.
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
