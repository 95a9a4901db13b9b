// Package swp implements the searchable symmetric encryption scheme of
// Song, Wagner and Perrig ("Practical Techniques for Searches on Encrypted
// Data", IEEE S&P 2000) — the building block reference [7] of the paper.
//
// The final ("hidden search") variant is implemented. A document is a
// sequence of fixed-length words W_1 … W_l of n bytes each. For position i:
//
//	X_i = E_{k''}(W_i)            deterministic pre-encryption (PRP)
//	X_i = ⟨L_i, R_i⟩              split: |L_i| = n−m, |R_i| = m
//	S_i = G(seed_doc)_i           pseudorandom stream chunk, n−m bytes
//	k_i = f_{k'}(L_i)             per-word PRF key
//	T_i = ⟨S_i, F_{k_i}(S_i)⟩     m-byte checksum F
//	C_i = X_i ⊕ T_i
//
// To search for word W the client hands the server the trapdoor
// ⟨X, k⟩ = ⟨E_{k”}(W), f_{k'}(L)⟩; the server tests, for every ciphertext
// word, whether C_i ⊕ X has the form ⟨s, F_k(s)⟩. A non-matching word passes
// the test with probability 2^(−8m), which is the scheme's false-positive
// rate per word slot; the paper's construction (internal/core) filters these
// client-side, exactly as §3 of the paper prescribes.
//
// Decryption needs no search: the client regenerates S_i from the document
// seed, recovers L_i = C_i^L ⊕ S_i, recomputes k_i and the checksum, recovers
// R_i, and inverts the pre-encryption.
//
// Instantiation. SWP asks only that F be a pseudorandom function on the
// fixed-width chunk S_i, and F is the one primitive the server evaluates —
// once per stored cipherword per query — so it is the cheapest PRF the
// repository's assumptions already pay for: crypto.BlockPRF, AES-256
// CBC-MAC over the zero-padded chunk truncated to m <= 16 bytes, keyed
// directly by the 32-byte k_i. That rests on AES-256 being a pseudorandom
// permutation (which G, AES-256-CTR, assumes anyway), the PRP/PRF
// switching lemma, and CBC-MAC being a PRF on inputs of one fixed length;
// the length n−m is fixed by Params and enforced by the BlockPRF. The
// floor of a match test is ⌈(n−m)/16⌉ AES blocks per cipherword — one for
// every stream width up to 16 bytes. G is AES-256-CTR; f, the Feistel
// rounds of E and key derivation are HMAC-SHA256: they run on the client
// only, never in the server's scan.
package swp

import (
	"fmt"
	"math"

	"repro/internal/crypto"
)

// Params fixes the public geometry of a scheme instance. Both parties (and
// the adversary) know these.
type Params struct {
	// WordLen is the word length n in bytes. Every plaintext word must be
	// exactly this long; internal/core pads with '#'.
	WordLen int
	// ChecksumLen is the checksum width m in bytes, 1 <= m < n and
	// m <= MaxChecksumLen. The false-positive probability per word slot
	// is 2^(-8m).
	ChecksumLen int
}

// MaxChecksumLen is the widest checksum F produces: one AES block, a
// false-positive rate of 2^-128.
const MaxChecksumLen = crypto.BlockPRFSize

// Validate checks the parameter constraints.
func (p Params) Validate() error {
	if p.WordLen < 2 {
		return fmt.Errorf("swp: word length must be >= 2 bytes, got %d", p.WordLen)
	}
	if p.ChecksumLen < 1 || p.ChecksumLen >= p.WordLen {
		return fmt.Errorf("swp: checksum length must be in [1, %d), got %d", p.WordLen, p.ChecksumLen)
	}
	if p.ChecksumLen > MaxChecksumLen {
		return fmt.Errorf("swp: checksum length must be at most %d bytes (one AES block), got %d", MaxChecksumLen, p.ChecksumLen)
	}
	return nil
}

// streamLen returns n-m, the width of the stream chunk S_i.
func (p Params) streamLen() int { return p.WordLen - p.ChecksumLen }

// FalsePositiveRate returns the theoretical per-slot false positive
// probability 2^(-8m).
func (p Params) FalsePositiveRate() float64 {
	return math.Ldexp(1, -8*p.ChecksumLen)
}

// Scheme holds the secret keys and parameters of one SWP instance.
type Scheme struct {
	params Params
	pre    *crypto.PRP // E_{k''}: deterministic pre-encryption
	fPRF   *crypto.PRF // f_{k'}: derives per-word keys from L_i
	seed   *crypto.PRF // derives per-document stream seeds
}

// New derives an SWP instance from a master key. The three internal keys
// (pre-encryption, word-key PRF, stream-seed PRF) are domain-separated
// subkeys of the master.
func New(master crypto.Key, p Params) (*Scheme, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := crypto.NewPRF(master)
	pre, err := crypto.NewPRP(root.DeriveKey("swp/pre-encryption", nil), p.WordLen)
	if err != nil {
		return nil, fmt.Errorf("swp: %w", err)
	}
	return &Scheme{
		params: p,
		pre:    pre,
		fPRF:   crypto.NewPRF(root.DeriveKey("swp/f", nil)),
		seed:   crypto.NewPRF(root.DeriveKey("swp/seed", nil)),
	}, nil
}

// Params returns the public parameters.
func (s *Scheme) Params() Params { return s.params }

// docPRG builds the per-document stream generator.
func (s *Scheme) docPRG(docID []byte) (*crypto.PRG, error) {
	return crypto.NewPRG(s.seed.DeriveKey("swp/stream", docID))
}

// wordKey computes k_i = f_{k'}(L_i).
func (s *Scheme) wordKey(left []byte) crypto.Key {
	return crypto.KeyFromBytes(s.fPRF.Sum(left, crypto.KeySize))
}

// checksum computes F_{k}(s) of m bytes, through the same crypto.BlockPRF
// the server-side Matcher evaluates.
func checksum(k crypto.Key, stream []byte, m int) []byte {
	f := make([]byte, m)
	prf := crypto.NewBlockPRF(k, len(stream))
	prf.SumInto(f, stream)
	return f
}

// EncryptWord encrypts the word at position pos of the document identified
// by docID. The word must be exactly WordLen bytes.
func (s *Scheme) EncryptWord(docID []byte, pos uint64, word []byte) ([]byte, error) {
	if len(word) != s.params.WordLen {
		return nil, fmt.Errorf("swp: word must be %d bytes, got %d", s.params.WordLen, len(word))
	}
	x, err := s.pre.Encrypt(word)
	if err != nil {
		return nil, fmt.Errorf("swp: pre-encrypting word: %w", err)
	}
	prg, err := s.docPRG(docID)
	if err != nil {
		return nil, err
	}
	return s.encryptPre(prg, pos, x), nil
}

// encryptPre finishes encryption of a pre-encrypted word X at position pos
// using the given per-document stream.
func (s *Scheme) encryptPre(prg *crypto.PRG, pos uint64, x []byte) []byte {
	nm := s.params.streamLen()
	left, right := x[:nm], x[nm:]
	stream := prg.Block(pos, nm)
	ki := s.wordKey(left)
	f := checksum(ki, stream, s.params.ChecksumLen)
	out := make([]byte, s.params.WordLen)
	for i := 0; i < nm; i++ {
		out[i] = left[i] ^ stream[i]
	}
	for i := 0; i < s.params.ChecksumLen; i++ {
		out[nm+i] = right[i] ^ f[i]
	}
	return out
}

// EncryptDocument encrypts all words of a document. Positions are the slice
// indices; all words must be exactly WordLen bytes.
func (s *Scheme) EncryptDocument(docID []byte, words [][]byte) ([][]byte, error) {
	prg, err := s.docPRG(docID)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(words))
	for i, w := range words {
		if len(w) != s.params.WordLen {
			return nil, fmt.Errorf("swp: document %x word %d: must be %d bytes, got %d",
				docID, i, s.params.WordLen, len(w))
		}
		x, err := s.pre.Encrypt(w)
		if err != nil {
			return nil, fmt.Errorf("swp: pre-encrypting word %d: %w", i, err)
		}
		out[i] = s.encryptPre(prg, uint64(i), x)
	}
	return out, nil
}

// DecryptWord decrypts the ciphertext word at position pos of document
// docID.
func (s *Scheme) DecryptWord(docID []byte, pos uint64, cipherword []byte) ([]byte, error) {
	if len(cipherword) != s.params.WordLen {
		return nil, fmt.Errorf("swp: cipherword must be %d bytes, got %d", s.params.WordLen, len(cipherword))
	}
	prg, err := s.docPRG(docID)
	if err != nil {
		return nil, err
	}
	return s.decryptWith(prg, pos, cipherword)
}

// decryptWith decrypts one word given the per-document stream generator.
func (s *Scheme) decryptWith(prg *crypto.PRG, pos uint64, cipherword []byte) ([]byte, error) {
	nm := s.params.streamLen()
	stream := prg.Block(pos, nm)
	left := make([]byte, nm)
	for i := range left {
		left[i] = cipherword[i] ^ stream[i]
	}
	ki := s.wordKey(left)
	f := checksum(ki, stream, s.params.ChecksumLen)
	x := make([]byte, s.params.WordLen)
	copy(x, left)
	for i := 0; i < s.params.ChecksumLen; i++ {
		x[nm+i] = cipherword[nm+i] ^ f[i]
	}
	w, err := s.pre.Decrypt(x)
	if err != nil {
		return nil, fmt.Errorf("swp: inverting pre-encryption: %w", err)
	}
	return w, nil
}

// DecryptDocument decrypts all words of a document.
func (s *Scheme) DecryptDocument(docID []byte, cipherwords [][]byte) ([][]byte, error) {
	prg, err := s.docPRG(docID)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(cipherwords))
	for i, cw := range cipherwords {
		if len(cw) != s.params.WordLen {
			return nil, fmt.Errorf("swp: document %x cipherword %d: must be %d bytes, got %d",
				docID, i, s.params.WordLen, len(cw))
		}
		w, err := s.decryptWith(prg, uint64(i), cw)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// Trapdoor is the search token for one word: the deterministic
// pre-encryption X = E_{k”}(W) and the word key k = f_{k'}(L). Handing
// ⟨X, k⟩ to the server lets it locate (probable) occurrences of W without
// learning W, and nothing else about other words.
type Trapdoor struct {
	// X is the pre-encrypted word, WordLen bytes.
	X []byte
	// K is the word PRF key, crypto.KeySize bytes.
	K []byte
}

// NewTrapdoor computes the trapdoor for a word. The word must be exactly
// WordLen bytes.
func (s *Scheme) NewTrapdoor(word []byte) (Trapdoor, error) {
	if len(word) != s.params.WordLen {
		return Trapdoor{}, fmt.Errorf("swp: trapdoor word must be %d bytes, got %d", s.params.WordLen, len(word))
	}
	x, err := s.pre.Encrypt(word)
	if err != nil {
		return Trapdoor{}, fmt.Errorf("swp: pre-encrypting trapdoor word: %w", err)
	}
	k := s.wordKey(x[:s.params.streamLen()])
	return Trapdoor{X: x, K: k[:]}, nil
}

// Match is the server-side test: it reports whether the ciphertext word
// matches the trapdoor. It uses no secret keys — only the trapdoor and the
// public parameters — which is what makes the scheme outsourceable. A
// non-matching word passes with probability 2^(-8m) (a false positive).
//
// Match constructs a fresh Matcher per call; callers testing one trapdoor
// against many words should build a Matcher once instead.
func Match(p Params, cipherword []byte, td Trapdoor) bool {
	return NewMatcher(p, td).Match(cipherword)
}

// SearchDocument returns the positions of all cipherwords in the document
// that match the trapdoor. Server-side, key-free.
func SearchDocument(p Params, cipherwords [][]byte, td Trapdoor) []int {
	return NewMatcher(p, td).Search(cipherwords, nil)
}
