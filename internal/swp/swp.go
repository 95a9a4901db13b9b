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
// Instantiation. Everything evaluated per word is AES-256. F is the one
// primitive the server evaluates — once per stored cipherword per query —
// and SWP asks only that it be a pseudorandom function on the fixed-width
// chunk S_i: it is crypto.BlockPRF, AES-256 CBC-MAC over the zero-padded
// chunk truncated to m <= 16 bytes, keyed directly by the 32-byte k_i. The
// floor of a match test is ⌈(n−m)/16⌉ AES blocks per cipherword — one for
// every stream width up to 16 bytes, and there the Matcher does nothing
// else: 64-bit loads of the cipherword's stream part XORed with X's (zero
// padding is F's), one AES block, a whole-word compare of the m checksum
// bytes. An AES block is a chain of 14 dependent rounds, so its latency
// far exceeds its throughput (on a 2-vCPU Xeon: ~17 ns a block alone,
// ~3 ns a block when eight go through AES-NI interleaved), and ψ asks
// only for independent blocks: Matcher.MatchRun fills a run of 32 from
// the words of consecutive tuples and encrypts it in one
// crypto.AES256.EncryptBlocks call, ~25 ns per three-word tuple. G is
// AES-256-CTR. f is crypto.WidePRF: the same CBC-MAC over L_i‖⟨j⟩,
// j = 1, 2, whose two tags are k_i. E is a four-round Luby–Rackoff Feistel network (crypto.PRP)
// whose four round functions are WidePRFs under independent keys. All of
// them — the client's G, f, F and E as much as the server's F — run on
// crypto.AES256, so the codec's per-document and per-word key expansions
// happen in place. The assumptions are those G already makes plus the
// textbook reductions:
// AES-256 is a pseudorandom permutation; the PRP/PRF switching lemma;
// CBC-MAC is a PRF on messages of one fixed length (Bellare–Kilian–
// Rogaway) — every BlockPRF and WidePRF instance fixes its input length,
// n−m for F and f and a Feistel half for E's rounds, and a WidePRF its
// output length too, so each key MACs messages of exactly one length, and
// both types refuse any other; and four Feistel rounds over PRFs are a
// strong PRP. E on a short word keeps the small-domain bound a Feistel
// network always had: its advantage bound grows with q²/2^(4n) for n-byte
// words, whatever the round function.
//
// HMAC-SHA256 (crypto.PRF) remains where the input has no fixed length or
// the work is done once: deriving the three subkeys and E's round keys at
// construction, the per-document stream seed (Codec.SetDocument — a
// document identifier may have any length), and the word-key functions of
// the three precursor schemes in variants.go. None of it runs per word,
// and nothing but F ever runs in the server's scan.
package swp

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

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

// Scheme holds the secret keys and parameters of one SWP instance. It is
// safe for concurrent use: pre and f are only ever cloned (NewCodec), never
// evaluated in place, and seed guards its own state.
type Scheme struct {
	params Params
	pre    *crypto.PRP     // E_{k''}: deterministic pre-encryption
	f      *crypto.WidePRF // f_{k'}: derives per-word keys from L_i
	seed   *crypto.PRF     // derives per-document stream seeds
	idle   sync.Pool       // *Codec between two NewTrapdoor calls
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
		f:      crypto.NewWidePRF(root.DeriveKey("swp/f", nil), p.streamLen(), crypto.KeySize),
		seed:   crypto.NewPRF(root.DeriveKey("swp/seed", nil)),
	}, nil
}

// Params returns the public parameters.
func (s *Scheme) Params() Params { return s.params }

// Codec encrypts and decrypts the words of one document at a time. It is
// the scheme's only implementation of both directions: SetDocument is the
// one place a document's stream key is derived from its identifier, and
// the word methods run over scratch the codec owns. Every AES key it
// meets — the document's stream key, each word's k_i — is expanded in
// place into a crypto.AES256 the codec already holds, so on the AES-NI
// path a word costs no heap allocation at all, and on the crypto/aes path
// (FIPS 140-3 mode, purego, other architectures) one: the cipher of its
// k_i, which the scheme's definition forces for every distinct word
// value.
//
// Only for distinct values: k_i = f_{k'}(L_i) and W_i = E⁻¹(X_i) are
// functions of the word value alone (L_i and X_i are E's output on it),
// so a codec remembers, in a fixed direct-mapped memo of memoSlots slots
// indexed by L_i's first byte — uniform, since L_i is part of a PRP
// output — each L_i it met with its expanded F_{k_i}, and the last X_i it
// decrypted under it with W_i. A word whose L_i is in its slot skips f and
// the key expansion in either direction; a decrypted word whose whole X_i
// is there skips E⁻¹ too. Slots are compared in constant time and
// overwritten on collision. Values repeat across documents, not within
// one (core's words each carry their column), so a codec's first
// document runs on one slot of its own and the memo is allocated when a
// second document begins. The memo changes no output bit, lives until
// Reset (core resets a pooled codec at the start of every call, so it
// lives for one call) and never leaves Alex's side.
//
// A Codec is NOT safe for concurrent use; a Scheme is, and NewCodec hands
// each goroutine its own, with copies of the expanded keys of E and f.
type Codec struct {
	s      *Scheme
	pre    *crypto.PRP
	f      *crypto.WidePRF
	prg    crypto.PRG           // G of the current document
	onDoc  bool                 // SetDocument has keyed prg
	doc    crypto.Key           // the current document's stream key
	ki     crypto.Key           // k_i = f_{k'}(L_i)
	seedIn []byte               // DeriveKey("swp/stream", docID)'s PRF input
	x      []byte               // X_i = ⟨L_i, R_i⟩, WordLen bytes
	t      []byte               // T_i = ⟨S_i, F_{k_i}(S_i)⟩, WordLen bytes
	first  memoSlot             // the only slot until a second document
	memo   *[memoSlots]memoSlot // nil until a second document
}

// memoSlots is the size of a codec's word memo: a power of two up to 256,
// so that L_i's first byte modulo it is a uniform index.
const memoSlots = 64

// memoSlot is one word value a codec has met: its L_i (x's left part),
// F_{k_i}, and the last X_i decrypted under that L_i with its W_i.
type memoSlot struct {
	x, w []byte
	kprf crypto.BlockPRF // re-keyed in place when the slot takes a word value
	used bool            // x's L_i and kprf hold a word value
	hasW bool            // all of x, and w, hold a decryption under it
}

// streamLabel domain-separates the per-document stream key.
const streamLabel = "swp/stream"

// NewCodec returns a codec for the scheme, not yet on any document.
func (s *Scheme) NewCodec() *Codec {
	n := s.params.WordLen
	buf := make([]byte, 4*n)
	c := &Codec{s: s, pre: s.pre.Clone(), f: s.f.Clone(), x: buf[:n:n], t: buf[n : 2*n : 2*n]}
	c.first.x, c.first.w = buf[2*n:3*n:3*n], buf[3*n:]
	c.first.kprf = crypto.NewBlockPRF(crypto.Key{}, s.params.streamLen())
	return c
}

// Reset takes the codec off its document and empties its memo, keeping
// every buffer: afterwards it answers exactly as a fresh codec does,
// which is what lets core pool codecs across calls.
func (c *Codec) Reset() {
	c.onDoc = false
	c.first.used, c.first.hasW = false, false
	if c.memo != nil {
		for i := range c.memo {
			c.memo[i].used, c.memo[i].hasW = false, false
		}
	}
}

// SetDocument positions the codec on the document identified by docID:
// it derives that document's stream key — one HMAC, because a document
// identifier has no fixed length — and expands it in place. The word
// methods then address the document's words by position.
func (c *Codec) SetDocument(docID []byte) {
	// PRF.DeriveKey(streamLabel, docID), with its injective encoding
	// built in the codec's buffer instead of a fresh one.
	in := binary.BigEndian.AppendUint32(c.seedIn[:0], uint32(len(streamLabel)))
	in = append(in, streamLabel...)
	in = binary.BigEndian.AppendUint32(in, uint32(len(docID)))
	in = append(in, docID...)
	c.seedIn = in
	c.s.seed.SumInto(c.doc[:], in)
	c.prg.Rekey(c.doc)
	if c.onDoc && c.memo == nil {
		c.memo = newMemo(len(c.x), &c.first.kprf)
	}
	c.onDoc = true
}

// EncryptWordInto encrypts the word at position pos of the current
// document into dst. Both must be exactly WordLen bytes.
func (c *Codec) EncryptWordInto(dst []byte, pos uint64, word []byte) error {
	stream, err := c.stream(dst, pos, word)
	if err != nil {
		return err
	}
	c.pre.EncryptInto(c.x, word)
	c.mask(stream)
	subtle.XORBytes(dst, c.x, c.t)
	return nil
}

// DecryptWordInto decrypts the cipherword at position pos of the current
// document into dst. Both must be exactly WordLen bytes.
func (c *Codec) DecryptWordInto(dst []byte, pos uint64, cipherword []byte) error {
	stream, err := c.stream(dst, pos, cipherword)
	if err != nil {
		return err
	}
	nm := len(stream)
	subtle.XORBytes(c.x[:nm], cipherword[:nm], stream) // L_i
	slot := c.mask(stream)
	subtle.XORBytes(c.x[nm:], cipherword[nm:], c.t[nm:]) // R_i
	if slot.hasW && subtle.ConstantTimeCompare(slot.x, c.x) == 1 {
		copy(dst, slot.w)
		return nil
	}
	c.pre.DecryptInto(dst, c.x)
	copy(slot.x, c.x)
	copy(slot.w, dst)
	slot.hasW = true
	return nil
}

// stream validates one word call and generates S_i into the left part of
// c.t.
func (c *Codec) stream(dst []byte, pos uint64, src []byte) ([]byte, error) {
	if n := c.s.params.WordLen; len(src) != n || len(dst) != n {
		return nil, fmt.Errorf("swp: word must be %d bytes, got %d (into %d)", n, len(src), len(dst))
	}
	if !c.onDoc {
		return nil, fmt.Errorf("swp: codec used before SetDocument")
	}
	stream := c.t[:c.s.params.streamLen()]
	c.prg.BlockInto(stream, pos)
	return stream, nil
}

// mask completes T_i = ⟨S_i, F_{k_i}(S_i)⟩ in c.t: F_{k_i} from the memo
// slot of the L_i in c.x — derived there first if the slot holds another
// word value — then F over the stream chunk already in c.t. It returns
// the slot.
func (c *Codec) mask(stream []byte) *memoSlot {
	nm := len(stream)
	l := c.x[:nm]
	slot := &c.first
	if c.memo != nil {
		slot = &c.memo[l[0]%memoSlots]
	}
	if !slot.used || subtle.ConstantTimeCompare(slot.x[:nm], l) != 1 {
		c.f.SumInto(c.ki[:], l)
		slot.kprf.Rekey(c.ki)
		copy(slot.x, l)
		slot.used, slot.hasW = true, false
	}
	slot.kprf.SumInto(c.t[nm:], stream)
	return slot
}

// newMemo allocates a word memo for words of n bytes: the slots, one
// buffer their byte fields are cut from, and in each slot a copy of kprf,
// an F of the codec's input length for the slot to re-key.
func newMemo(n int, kprf *crypto.BlockPRF) *[memoSlots]memoSlot {
	memo := new([memoSlots]memoSlot)
	buf := make([]byte, 2*n*memoSlots)
	for i := range memo {
		b := buf[2*n*i : 2*n*(i+1) : 2*n*(i+1)]
		memo[i].x, memo[i].w = b[:n:n], b[n:]
		memo[i].kprf = kprf.Clone()
	}
	return memo
}

// codecOn returns a fresh codec positioned on docID, for the one-shot
// methods below; callers with more than one document should hold a Codec.
func (s *Scheme) codecOn(docID []byte) *Codec {
	c := s.NewCodec()
	c.SetDocument(docID)
	return c
}

// EncryptWord encrypts the word at position pos of the document identified
// by docID. The word must be exactly WordLen bytes.
func (s *Scheme) EncryptWord(docID []byte, pos uint64, word []byte) ([]byte, error) {
	out := make([]byte, s.params.WordLen)
	if err := s.codecOn(docID).EncryptWordInto(out, pos, word); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptWord decrypts the ciphertext word at position pos of document
// docID.
func (s *Scheme) DecryptWord(docID []byte, pos uint64, cipherword []byte) ([]byte, error) {
	out := make([]byte, s.params.WordLen)
	if err := s.codecOn(docID).DecryptWordInto(out, pos, cipherword); err != nil {
		return nil, err
	}
	return out, nil
}

// document runs one of a codec's word methods over a whole document.
func (s *Scheme) document(docID []byte, words [][]byte, word func(c *Codec, dst []byte, pos uint64, src []byte) error) ([][]byte, error) {
	c := s.codecOn(docID)
	out := make([][]byte, len(words))
	for i, w := range words {
		out[i] = make([]byte, s.params.WordLen)
		if err := word(c, out[i], uint64(i), w); err != nil {
			return nil, fmt.Errorf("swp: document %x word %d: %w", docID, i, err)
		}
	}
	return out, nil
}

// EncryptDocument encrypts all words of a document. Positions are the slice
// indices; all words must be exactly WordLen bytes.
func (s *Scheme) EncryptDocument(docID []byte, words [][]byte) ([][]byte, error) {
	return s.document(docID, words, (*Codec).EncryptWordInto)
}

// DecryptDocument decrypts all words of a document.
func (s *Scheme) DecryptDocument(docID []byte, cipherwords [][]byte) ([][]byte, error) {
	return s.document(docID, cipherwords, (*Codec).DecryptWordInto)
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
	// A trapdoor is the first half of encrypting the word, so it runs on a
	// codec's E and f; one select makes one, hence the pool.
	c, _ := s.idle.Get().(*Codec)
	if c == nil {
		c = s.NewCodec()
	}
	x, k := make([]byte, s.params.WordLen), make([]byte, crypto.KeySize)
	c.pre.EncryptInto(x, word)
	c.f.SumInto(k, x[:s.params.streamLen()])
	s.idle.Put(c)
	return Trapdoor{X: x, K: k}, nil
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
