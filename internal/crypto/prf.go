// Package crypto provides the cryptographic substrate for the reproduction:
// a variable-length pseudorandom function (HMAC-SHA256), fixed-length ones
// (AES-256 CBC-MAC: one block for short inputs, concatenated tags for wide
// outputs), a pseudorandom generator (AES-CTR), a length-preserving
// pseudorandom permutation (a four-round Feistel network in the style of
// Luby–Rackoff over those CBC-MAC round functions), key derivation, and an
// AEAD wrapper for the strong tuple encryption used by the comparator
// schemes.
//
// Everything is built on the Go standard library. The constructions are the
// textbook ones the paper's building blocks assume: Song–Wagner–Perrig's
// searchable encryption (internal/swp) is specified in terms of a
// pseudorandom generator G, pseudorandom functions f (WidePRF) and F
// (BlockPRF), and a deterministic pre-encryption E (PRP); this package
// supplies them all on AES-256 — it is assumed a pseudorandom permutation,
// and every CBC-MAC instance fixes its message length, which is where
// CBC-MAC is a PRF. The final scheme's G is a CBC-MAC too (swp.Codec);
// PRG is the precursor schemes'. HMAC (PRF) is for inputs of no fixed
// length and for work done once: key derivation.
//
// BlockPRF, WidePRF and PRP each have a batch form — SumAllInto,
// EncryptAllInto, DecryptAllInto — that evaluates k inputs under the one
// key together, each CBC-MAC chaining step or Feistel round one call over
// all k blocks, so a batch runs at AES's throughput rather than its
// latency. The one-input methods are their k = 1 case.
//
// All of them run on one AES: AES256, an expanded key held by value. On
// amd64 with AES-NI it is this package's assembly — the key expanded in
// place with AESKEYGENASSIST, independent blocks encrypted eight at a
// time — so re-keying F per word allocates nothing. That path lies
// outside Go's FIPS 140-3 module; in FIPS 140-3 mode (GODEBUG=fips140=on),
// under the purego build tag and on other architectures AES256 is a loop
// over a crypto/aes cipher, one allocation per key. crypto/cipher appears
// elsewhere only in the AEAD.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// KeySize is the byte length of all symmetric keys in this repository.
const KeySize = 32

// Key is a fixed-size symmetric key.
type Key [KeySize]byte

// PRF is a keyed pseudorandom function based on HMAC-SHA256 with
// counter-mode output expansion: output block i is
// HMAC(key, uint32(i) || input). Under the standard PRF assumption on HMAC,
// outputs of any requested length are indistinguishable from random.
//
// A PRF carries one reusable HMAC state (constructed once, Reset per call),
// so evaluations after the first perform no heap allocations when routed
// through SumInto. A mutex guards that shared state, so a single PRF stays
// safe for concurrent use: an uncontended caller takes the zero-alloc fast
// path, while a caller that finds the state busy falls back to a fresh
// one-shot HMAC (allocating, but fully parallel — the old stateless
// behaviour).
type PRF struct {
	key     Key
	mu      sync.Mutex        // guards mac, ctr and scratch
	mac     hash.Hash         // reusable HMAC-SHA256 state, keyed with key
	ctr     [4]byte           // counter scratch (a field so it never escapes per call)
	scratch [sha256.Size]byte // digest scratch for partial-block output
}

// NewPRF constructs a PRF with the given key.
func NewPRF(key Key) *PRF {
	return &PRF{key: key, mac: hmac.New(sha256.New, key[:])}
}

// SumInto computes the PRF of input and writes exactly len(dst) bytes of
// output into dst. It is the zero-allocation core of the PRF: the HMAC
// state is reused across calls, and output lands in caller-owned memory.
func (p *PRF) SumInto(dst, input []byte) {
	if !p.mu.TryLock() {
		// The shared state is busy: compute with a fresh one-shot HMAC
		// instead of queueing, so concurrent callers of one PRF keep the
		// old stateless path's full parallelism.
		sumOneShot(hmac.New(sha256.New, p.key[:]), dst, input)
		return
	}
	defer p.mu.Unlock()
	if p.mac == nil {
		// Zero-value PRFs (not built by NewPRF) still work; they just pay
		// the construction cost on first use.
		p.mac = hmac.New(sha256.New, p.key[:])
	}
	for block, off := uint32(0), 0; off < len(dst); block++ {
		p.mac.Reset()
		binary.BigEndian.PutUint32(p.ctr[:], block)
		p.mac.Write(p.ctr[:])
		p.mac.Write(input)
		if len(dst)-off >= sha256.Size {
			p.mac.Sum(dst[off:off:len(dst)])
			off += sha256.Size
		} else {
			s := p.mac.Sum(p.scratch[:0])
			off += copy(dst[off:], s)
		}
	}
}

// sumOneShot is the counter-mode expansion over a caller-owned HMAC state,
// used by the contention fallback.
func sumOneShot(mac hash.Hash, dst, input []byte) {
	var ctr [4]byte
	var scratch [sha256.Size]byte
	for block, off := uint32(0), 0; off < len(dst); block++ {
		mac.Reset()
		binary.BigEndian.PutUint32(ctr[:], block)
		mac.Write(ctr[:])
		mac.Write(input)
		s := mac.Sum(scratch[:0])
		off += copy(dst[off:], s)
	}
}

// Sum computes the PRF of input truncated or expanded to n bytes. It is a
// thin allocating wrapper over SumInto.
func (p *PRF) Sum(input []byte, n int) []byte {
	out := make([]byte, n)
	p.SumInto(out, input)
	return out
}

// SumStrings is a convenience wrapper that evaluates the PRF on the
// length-prefixed concatenation of the given byte strings, making the input
// encoding injective.
func (p *PRF) SumStrings(n int, parts ...[]byte) []byte {
	var buf []byte
	var len4 [4]byte
	for _, part := range parts {
		binary.BigEndian.PutUint32(len4[:], uint32(len(part)))
		buf = append(buf, len4[:]...)
		buf = append(buf, part...)
	}
	return p.Sum(buf, n)
}

// DeriveKey derives a subkey from the PRF's key for the given label and
// context. It implements a simple HKDF-expand-style derivation: the label
// separates domains (e.g. "swp/f", "swp/seed"), the context binds instance
// data (e.g. a document identifier).
func (p *PRF) DeriveKey(label string, context []byte) Key {
	var k Key
	out := p.SumStrings(KeySize, []byte(label), context)
	copy(k[:], out)
	return k
}

// KeyFromBytes copies up to KeySize bytes into a Key; shorter inputs are
// hashed to fill the key so that all bits depend on all input bytes.
func KeyFromBytes(b []byte) Key {
	var k Key
	if len(b) >= KeySize {
		copy(k[:], b[:KeySize])
		return k
	}
	h := sha256.Sum256(b)
	copy(k[:], h[:])
	return k
}

// CheckKeyLen validates an externally supplied key slice.
func CheckKeyLen(b []byte) error {
	if len(b) != KeySize {
		return fmt.Errorf("crypto: key must be %d bytes, got %d", KeySize, len(b))
	}
	return nil
}
