package crypto

import "fmt"

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
// EncryptAllInto and DecryptAllInto permute k strings at once, each
// Feistel round one batched WidePRF call over all k halves, so a batch
// runs at AES's throughput rather than its latency; EncryptInto and
// DecryptInto are their k = 1 case. The halves are split once into
// zero-padded 16-byte blocks, the form the round functions MAC them in,
// and a round XORs its masked tags into the other half's blocks in place:
// the halves trade roles, not bytes.
//
// A PRP is NOT safe for concurrent use (the halves and the round outputs
// live in scratch the instance owns, so a call allocates nothing once the
// scratch has grown to its batch); Clone hands each goroutine its own,
// with copies of the four key schedules.
type PRP struct {
	rounds [4]*WidePRF
	n      int // permuted string length in bytes
	lsize  int // left half size; right half is n-lsize
	// scratch: the k left and the k right halves, as zero-padded blocks
	l, r [][BlockPRFSize]byte
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
	return p, nil
}

// Clone returns an independent evaluator of the same permutation.
func (p *PRP) Clone() *PRP {
	c := &PRP{n: p.n, lsize: p.lsize}
	for i, r := range p.rounds {
		c.rounds[i] = r.Clone()
	}
	return c
}

// Length returns the byte length of the permuted strings.
func (p *PRP) Length() int { return p.n }

// EncryptInto applies the permutation to src and writes the result to dst,
// without allocating. Both must have length Length() — anything else is a
// bug in the caller, as in BlockPRF — and they may be the same slice.
func (p *PRP) EncryptInto(dst, src []byte) { p.feistel(dst, src, 1, false) }

// DecryptInto inverts EncryptInto, under the same contract.
func (p *PRP) DecryptInto(dst, src []byte) { p.feistel(dst, src, 1, true) }

// EncryptAllInto applies the permutation to each of the k strings packed
// back to back in src and writes the results, packed the same way, to
// dst. Both must be k·Length() bytes; they may be the same slice.
func (p *PRP) EncryptAllInto(dst, src []byte, k int) { p.feistel(dst, src, k, false) }

// DecryptAllInto inverts EncryptAllInto, under the same contract.
func (p *PRP) DecryptAllInto(dst, src []byte, k int) { p.feistel(dst, src, k, true) }

// feistel runs the four rounds over k strings, forwards or inverted.
// Forwards a round maps (l, r) to (r, l ⊕ F_i(r)); inverted, round i
// maps (l, r) to (r ⊕ F_i(l), l) for i = 3 … 0. Each half is k strings'
// zero-padded blocks, so a round is one xorSums into the other half.
func (p *PRP) feistel(dst, src []byte, k int, inverse bool) {
	if k < 0 || len(src) != k*p.n || len(dst) != k*p.n {
		panic(fmt.Sprintf("crypto: prp: %d bytes into %d as %d strings on a permutation of %d-byte strings", len(src), len(dst), k, p.n))
	}
	ls, lb, rb := p.lsize, messageBlocks(p.lsize), messageBlocks(p.n-p.lsize)
	l, r := grow(&p.l, k*lb), grow(&p.r, k*rb)
	lm, rm := LowBytes(ls), LowBytes(p.n-ls)
	for i := range k {
		if at := i * p.n; lb == 1 && rb == 1 && at+ls+BlockPRFSize <= len(src) {
			l[i], r[i] = [BlockPRFSize]byte(src[at:]), [BlockPRFSize]byte(src[at+ls:])
			ANDBlock(&l[i], &lm)
			ANDBlock(&r[i], &rm)
			continue
		}
		loadBlocks(l[i*lb:(i+1)*lb], src, i*p.n, ls)
		loadBlocks(r[i*rb:(i+1)*rb], src, i*p.n+ls, p.n-ls)
	}
	for i := range 4 {
		if inverse {
			p.rounds[3-i].xorSums(r, l, k)
		} else {
			p.rounds[i].xorSums(l, r, k)
		}
		l, r = r, l
	}
	for i := range k {
		storeBlocks(dst, i*p.n, ls, l[i*lb:(i+1)*lb])
		storeBlocks(dst, i*p.n+ls, p.n-ls, r[i*rb:(i+1)*rb])
	}
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
