package crypto

import (
	"crypto/subtle"
	"fmt"
)

// PRP is a length-preserving pseudorandom permutation over byte strings of a
// fixed length, built as a four-round Feistel network whose round functions
// are AES-256 CBC-MAC PRFs (WidePRF) under four independent keys — the
// Luby–Rackoff construction; four rounds give strong PRP security under
// the PRF assumption. With unbalanced halves the round function's output
// always matches the half it is XORed into, so every round key sees one
// input length and one output length, which is what WidePRF requires.
//
// The Song–Wagner–Perrig scheme needs a deterministic, invertible
// pre-encryption E_{k”} on n-byte words where n is the scheme's word length
// — typically not a cipher block size — so a block cipher alone does not
// fit; a Feistel network over an arbitrary split does.
//
// A PRP is NOT safe for concurrent use (the halves and the round output
// live in scratch the instance owns, so EncryptInto and DecryptInto
// allocate nothing); Clone hands each goroutine its own, with copies of
// the four key schedules.
type PRP struct {
	rounds [4]*WidePRF
	n      int // permuted string length in bytes
	lsize  int // left half size; right half is n-lsize
	// scratch: the two halves and one round output, each as wide as the
	// wider half.
	a, b, f []byte
}

// NewPRP builds a PRP over strings of length n >= 2 bytes, deriving the four
// round keys from the given key.
func NewPRP(key Key, n int) (*PRP, error) {
	if n < 2 {
		return nil, fmt.Errorf("crypto: prp: length must be >= 2 bytes, got %d", n)
	}
	p := &PRP{n: n, lsize: n / 2}
	master := NewPRF(key)
	for i := range p.rounds {
		// Round i maps the current right half to a mask for the current
		// left half, and the halves trade places after every round.
		in, out := n-p.lsize, p.lsize
		if i%2 == 1 {
			in, out = out, in
		}
		p.rounds[i] = NewWidePRF(master.DeriveKey(fmt.Sprintf("prp/round/%d", i), nil), in, out)
	}
	p.newScratch()
	return p, nil
}

func (p *PRP) newScratch() {
	half := p.n - p.lsize
	buf := make([]byte, 3*half)
	p.a, p.b, p.f = buf[:half:half], buf[half:2*half:2*half], buf[2*half:]
}

// Clone returns an independent evaluator of the same permutation.
func (p *PRP) Clone() *PRP {
	c := &PRP{n: p.n, lsize: p.lsize}
	for i, r := range p.rounds {
		c.rounds[i] = r.Clone()
	}
	c.newScratch()
	return c
}

// Length returns the byte length of the permuted strings.
func (p *PRP) Length() int { return p.n }

// EncryptInto applies the permutation to src and writes the result to dst,
// without allocating. Both must have length Length() — anything else is a
// bug in the caller, as in BlockPRF — and they may be the same slice.
func (p *PRP) EncryptInto(dst, src []byte) {
	l, r := p.load(dst, src)
	for i := 0; i < 4; i++ {
		// (l, r) -> (r, l xor F_i(r))
		f := p.f[:len(l)]
		p.rounds[i].SumInto(f, r)
		subtle.XORBytes(l, l, f)
		l, r = r, l
	}
	copy(dst[copy(dst, l):], r)
}

// DecryptInto inverts EncryptInto, under the same contract.
func (p *PRP) DecryptInto(dst, src []byte) {
	l, r := p.load(dst, src)
	for i := 3; i >= 0; i-- {
		// (r, l xor F_i(r)) -> (l, r)
		f := p.f[:len(r)]
		p.rounds[i].SumInto(f, l)
		subtle.XORBytes(r, r, f)
		l, r = r, l
	}
	copy(dst[copy(dst, l):], r)
}

// load checks the lengths and copies src's halves into the scratch.
func (p *PRP) load(dst, src []byte) (l, r []byte) {
	if len(src) != p.n || len(dst) != p.n {
		panic(fmt.Sprintf("crypto: prp: %d bytes into %d on a permutation of %d-byte strings", len(src), len(dst), p.n))
	}
	l, r = p.a[:p.lsize], p.b[:p.n-p.lsize]
	copy(l, src[:p.lsize])
	copy(r, src[p.lsize:])
	return l, r
}

// Encrypt applies the permutation to src and returns the result. src must
// have length Length().
func (p *PRP) Encrypt(src []byte) ([]byte, error) {
	if len(src) != p.n {
		return nil, fmt.Errorf("crypto: prp: encrypt expects %d bytes, got %d", p.n, len(src))
	}
	dst := make([]byte, p.n)
	p.EncryptInto(dst, src)
	return dst, nil
}

// Decrypt inverts the permutation. src must have length Length().
func (p *PRP) Decrypt(src []byte) ([]byte, error) {
	if len(src) != p.n {
		return nil, fmt.Errorf("crypto: prp: decrypt expects %d bytes, got %d", p.n, len(src))
	}
	dst := make([]byte, p.n)
	p.DecryptInto(dst, src)
	return dst, nil
}
