// Package swp implements the searchable symmetric encryption scheme of
// Song, Wagner and Perrig ("Practical Techniques for Searches on Encrypted
// Data", IEEE S&P 2000) — the building block reference [7] of the paper.
//
// The final ("hidden search") variant is implemented. A document is a
// sequence of fixed-length words W_1 … W_l of n bytes each. For position i:
//
//	X_i = E_{k''}(W_i)            deterministic pre-encryption (PRP)
//	X_i = ⟨L_i, R_i⟩              split: |L_i| = n−m, |R_i| = m
//	S_i = G_K(docID, i)           pseudorandom stream chunk, n−m bytes
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
// identifier, recovers L_i = C_i^L ⊕ S_i, recomputes k_i and the checksum,
// recovers R_i, and inverts the pre-encryption.
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
// only for independent blocks: a Matcher's pass takes up to 32 words of
// consecutive tuples, read in place from a slab run, eight-wide through
// AES — ~15 ns per three-word tuple, against ~8 for its AES alone. G is
// CBC-MAC too, under one stream key K for every document: block j of
// document docID's stream is AES_K(AES_K(docID) ⊕ ⟨j⟩), the tag of the
// 32-byte message docID‖⟨j⟩ (docID is exactly DocIDLen = 16 bytes, drawn
// at random, so two documents share a stream only with the birthday
// probability of their identifiers colliding). f is crypto.WidePRF: the
// same CBC-MAC over L_i‖⟨j⟩, j = 1, 2, whose two tags are k_i. E is a
// four-round Luby–Rackoff Feistel network (crypto.PRP) whose four round
// functions are WidePRFs under independent keys. All of them — the
// client's G, f, F and E as much as the server's F — run on
// crypto.AES256, so the codec's per-word key expansions happen in place
// and its batches (Codec.EncryptRun, Codec.DecryptRun) run at AES's
// throughput. The assumptions are the textbook reductions:
// AES-256 is a pseudorandom permutation; the PRP/PRF switching lemma;
// CBC-MAC is a PRF on messages of one fixed length (Bellare–Kilian–
// Rogaway) — every BlockPRF and WidePRF instance fixes its input length,
// n−m for F and f and a Feistel half for E's rounds, and a WidePRF its
// output length too, so each key MACs messages of exactly one length, and
// both types refuse any other; G's key MACs only 32-byte messages; and
// four Feistel rounds over PRFs are a strong PRP. E on a short word keeps
// the small-domain bound a Feistel network always had: its advantage
// bound grows with q²/2^(4n) for n-byte words, whatever the round
// function.
//
// HMAC-SHA256 (crypto.PRF) remains only where the work is done once or
// outside the final scheme: deriving the three subkeys and E's round keys
// at construction, and the streams and word-key functions of the three
// precursor schemes in variants.go. None of it runs per document or per
// word, and nothing but F ever runs in the server's scan.
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

// DocIDLen is the length of a document identifier: one AES block, the
// first of the two blocks the stream function MACs. Identifiers are drawn
// at random (internal/core draws 16 bytes per tuple); one of any other
// length is refused, never hashed or padded.
const DocIDLen = 16

// RunDocs is the most documents internal/core puts in one run of a
// Codec: it cuts a table it encrypts and an answer it decrypts into runs
// of RunDocs tuples. At three words a document, a run's stream, E, f and
// E⁻¹ batches are ~96 blocks, twelve of AES256's eight-block groups, and
// a codec's run scratch stays that size whatever the table's or answer's.
const RunDocs = 32

// Scheme holds the secret keys and parameters of one SWP instance. It is
// safe for concurrent use: pre and f are only ever cloned (NewCodec), never
// evaluated in place, and stream is only read.
type Scheme struct {
	params Params
	pre    *crypto.PRP     // E_{k''}: deterministic pre-encryption
	f      *crypto.WidePRF // f_{k'}: derives per-word keys from L_i
	stream crypto.AES256   // K: the one stream key of every document
	idle   sync.Pool       // *Codec between two NewTrapdoor calls
}

// New derives an SWP instance from a master key. The three internal keys
// (pre-encryption, word-key PRF, stream key) are domain-separated subkeys
// of the master.
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
		stream: crypto.NewAES256(root.DeriveKey("swp/stream", nil)),
	}, nil
}

// Params returns the public parameters.
func (s *Scheme) Params() Params { return s.params }

// Codec encrypts and decrypts words. It is the scheme's only
// implementation of both directions, and both run the same way:
// SetDocument positions it on a document, QueueWord queues that
// document's words, and EncryptRun or DecryptRun then performs every
// queued word of every document at once. A run is whatever was queued
// since the last one; internal/core cuts its runs at RunDocs documents.
//
// The stream. Word position pos of document docID is masked by the
// ⌈(n−m)/16⌉ blocks S_{doc,j} = AES_K(AES_K(docID) ⊕ ⟨j⟩), j =
// pos·⌈(n−m)/16⌉ + b, under the scheme's one stream key K: the CBC-MAC
// of the 32-byte message docID‖⟨j⟩, ⟨j⟩ big-endian in the second block's
// last eight bytes. Every message has that one length, so this is a PRF
// (Bellare–Kilian–Rogaway) under the assumption F, f and E already make,
// and no key is expanded per document.
//
// The run. A run works in passes, so that AES meets independent blocks
// in batches instead of one dependent block at a time:
//  1. every queued document's AES_K(docID) in one call, then every
//     word's stream blocks in one call;
//  2. encrypting only: X_i = E_{k”}(W_i) of every word in one batched
//     call;
//  3. L_i — X_i's left part, or decrypting C_i's left part ⊕ S_i —
//     looked up in the memo in word order, and f_{k'} of every L_i the
//     memo lacks in one batched call;
//  4. in word order: F re-keyed to k_i where the memo lacked it, and
//     F_{k_i}(S_i) (one block under its own key); encrypting, C_i = X_i ⊕
//     ⟨S_i, F_{k_i}(S_i)⟩; decrypting, R_i = C_i's right part ⊕
//     F_{k_i}(S_i);
//  5. decrypting only: E⁻¹ in one batch over every X_i = ⟨L_i, R_i⟩ the
//     memo lacks.
//
// EncryptWordInto and DecryptWordInto are runs of one word, and
// EncryptDocument and DecryptDocument runs of one document.
//
// The memo. k_i = f_{k'}(L_i) and W_i = E⁻¹(X_i) are functions of the word
// value alone (L_i and X_i are E's output on it), so a codec remembers, in
// a fixed direct-mapped memo of memoSlots slots indexed by L_i's first
// byte — uniform, since L_i is part of a PRP output — each L_i it met with
// its expanded F_{k_i}, and the last X_i it decrypted under it with W_i.
// A word whose L_i is in its slot skips f and the key expansion in either
// direction; a decrypted word whose whole X_i is there skips E⁻¹ too.
// Slots are compared in constant time and overwritten on collision. A run
// takes exactly the decisions a word-at-a-time codec takes in word order
// — which lookups hit, which slot a word evicts, which tampered R part
// misses — so the memo changes no output bit. Values repeat across
// documents, not within one (core's words each carry their column), so a
// codec's first document runs on one slot of its own and the memo is
// allocated when a second document begins. It lives until Reset (core
// resets a pooled codec at the start of every call, so it lives for one
// call) and never leaves Alex's side.
//
// Every AES key a codec meets — each word's k_i — is expanded in place
// into a crypto.AES256 the codec already holds, and its run scratch grows
// once to a run of RunDocs documents, so on the AES-NI path a word costs
// no heap allocation at all, and on the crypto/aes path (FIPS 140-3 mode,
// purego, other architectures) one: the cipher of its k_i, which the
// scheme's definition forces for every distinct word value.
//
// A Codec is NOT safe for concurrent use; a Scheme is, and NewCodec hands
// each goroutine its own, with copies of the expanded keys of E and f.
type Codec struct {
	s     *Scheme
	pre   *crypto.PRP
	f     *crypto.WidePRF
	nb    int  // stream blocks per word, ⌈(n−m)/16⌉
	onDoc bool // SetDocument has positioned the codec

	// The run: the documents since the last run, the current one last —
	// docs[:enc] already AES_K(docID), the rest still docID — and the
	// words queued on them.
	docs  [][crypto.BlockPRFSize]byte
	enc   int
	words []runWord

	// Pass scratch, each packed and grown to the largest run: the words'
	// stream blocks, S_i and X_i; the L_i the memo lacks and their k_i;
	// the words E encrypts, or the X_i the memo lacks and their W_i.
	blocks [][crypto.BlockPRFSize]byte
	sw, xw []byte
	ls, ks []byte
	xs, ws []byte

	first memoSlot             // the only slot until a second document
	memo  *[memoSlots]memoSlot // nil until a second document
}

// runWord is one queued word and, once its run has looked it up, its
// memo decisions.
type runWord struct {
	dst, src []byte
	doc      int // its document's index in docs
	pos      uint64
	first    bool      // queued before the memo existed: decided by the first slot
	slot     *memoSlot // the slot its L_i lives in
	key      int       // index of its k_i among the run's f outputs; -1: the slot held L_i
	from     int       // index of its W_i among the run's E⁻¹ outputs; -1: copied from the slot
}

// memoSlots is the size of a codec's word memo: a power of two up to 256,
// so that L_i's first byte modulo it is a uniform index.
const memoSlots = 64

// memoSlot is one word value a codec has met: its L_i with F_{k_i}, and
// the last X_i decrypted under that L_i with its W_i.
type memoSlot struct {
	l    []byte          // L_i, n−m bytes
	kprf crypto.BlockPRF // re-keyed in place when the slot takes a word value
	used bool            // l and kprf hold a word value
	x, w []byte          // X_i and W_i, WordLen bytes each
	hasW bool            // x and w hold a decryption under l
	pend int             // during a run, w's index among the E⁻¹ outputs; else -1
}

// NewCodec returns a codec for the scheme, not yet on any document.
func (s *Scheme) NewCodec() *Codec {
	n, nm := s.params.WordLen, s.params.streamLen()
	c := &Codec{s: s, pre: s.pre.Clone(), f: s.f.Clone(), nb: (nm + crypto.BlockPRFSize - 1) / crypto.BlockPRFSize}
	c.first = newSlot(make([]byte, nm+2*n), nm, n, crypto.NewBlockPRF(crypto.Key{}, nm))
	return c
}

// newSlot cuts a slot's byte fields from buf, which holds n−m + 2n bytes.
func newSlot(buf []byte, nm, n int, kprf crypto.BlockPRF) memoSlot {
	return memoSlot{l: buf[:nm:nm], x: buf[nm : nm+n : nm+n], w: buf[nm+n : nm+2*n : nm+2*n], kprf: kprf, pend: -1}
}

// Reset takes the codec off its document, drops any queued words and
// empties its memo, keeping every buffer: afterwards it answers exactly
// as a fresh codec does, which is what lets core pool codecs across calls.
func (c *Codec) Reset() {
	c.onDoc = false
	clear(c.words) // drop the references to the caller's buffers
	c.docs, c.enc, c.words = c.docs[:0], 0, c.words[:0]
	c.first.used, c.first.hasW = false, false
	if c.memo != nil {
		for i := range c.memo {
			c.memo[i].used, c.memo[i].hasW = false, false
		}
	}
}

// SetDocument positions the codec on the document identified by docID,
// which must be DocIDLen bytes. It costs no AES: a document's
// AES_K(docID) is computed with the next batch that needs it.
func (c *Codec) SetDocument(docID []byte) error {
	if len(docID) != DocIDLen {
		return fmt.Errorf("swp: document identifier must be %d bytes, got %d", DocIDLen, len(docID))
	}
	if len(c.words) == 0 {
		c.docs, c.enc = c.docs[:0], 0
	}
	c.docs = append(c.docs, [crypto.BlockPRFSize]byte(docID))
	if c.onDoc && c.memo == nil {
		c.memo = newMemo(c.s.params, &c.first.kprf)
	}
	c.onDoc = true
	return nil
}

// check validates one word call: both slices WordLen bytes, on a document.
func (c *Codec) check(dst, src []byte) error {
	if n := c.s.params.WordLen; len(src) != n || len(dst) != n {
		return fmt.Errorf("swp: word must be %d bytes, got %d (into %d)", n, len(src), len(dst))
	}
	if !c.onDoc {
		return fmt.Errorf("swp: codec used before SetDocument")
	}
	return nil
}

// encryptDocs turns every queued identifier not yet encrypted into its
// AES_K(docID), in one call.
func (c *Codec) encryptDocs() {
	c.s.stream.EncryptBlocks(c.docs[c.enc:])
	c.enc = len(c.docs)
}

// streamBlocks writes the input blocks AES_K(docID) ⊕ ⟨j⟩ of position
// pos's stream into dst, one per block of the chunk, for a caller to
// encrypt.
func (c *Codec) streamBlocks(dst [][crypto.BlockPRFSize]byte, doc *[crypto.BlockPRFSize]byte, pos uint64) {
	j := pos * uint64(c.nb)
	for b := range dst {
		dst[b] = *doc
		binary.BigEndian.PutUint64(dst[b][8:], binary.BigEndian.Uint64(doc[8:])^(j+uint64(b)))
	}
}

// chunk writes the stream chunk S_i, the first len(s) bytes of blocks,
// into s.
func chunk(s []byte, blocks [][crypto.BlockPRFSize]byte) {
	for b := range blocks {
		copy(s[b*crypto.BlockPRFSize:], blocks[b][:])
	}
}

// QueueWord queues the word at position pos of the current document for
// the next run, which writes the word's image into dst: its cipherword
// under EncryptRun, its plaintext under DecryptRun. Both must be exactly
// WordLen bytes, and both must stay untouched until then.
func (c *Codec) QueueWord(dst []byte, pos uint64, src []byte) error {
	if err := c.check(dst, src); err != nil {
		return err
	}
	c.words = append(c.words, runWord{dst: dst, src: src, doc: len(c.docs) - 1, pos: pos, first: c.memo == nil})
	return nil
}

// EncryptWordInto encrypts the word at position pos of the current
// document into dst — a run of one word. Both must be exactly WordLen
// bytes.
func (c *Codec) EncryptWordInto(dst []byte, pos uint64, word []byte) error {
	if err := c.QueueWord(dst, pos, word); err != nil {
		return err
	}
	c.EncryptRun()
	return nil
}

// DecryptWordInto decrypts the cipherword at position pos of the current
// document into dst — a run of one word. Both must be exactly WordLen
// bytes.
func (c *Codec) DecryptWordInto(dst []byte, pos uint64, cipherword []byte) error {
	if err := c.QueueWord(dst, pos, cipherword); err != nil {
		return err
	}
	c.DecryptRun()
	return nil
}

// EncryptRun encrypts every queued word into its dst, in the passes the
// type's comment lists, and empties the queue; the codec stays on its
// current document.
func (c *Codec) EncryptRun() { c.run(true) }

// DecryptRun decrypts every queued word into its dst, in the passes the
// type's comment lists, and empties the queue; the codec stays on its
// current document.
func (c *Codec) DecryptRun() { c.run(false) }

// run is the one body of both directions.
func (c *Codec) run(encrypt bool) {
	k := len(c.words)
	if k == 0 {
		return
	}
	n, nm, nb := c.s.params.WordLen, c.s.params.streamLen(), c.nb

	// Pass 1: AES_K(docID) of the run's documents, then the words' stream
	// blocks, each in one call.
	c.encryptDocs()
	blocks := grow(&c.blocks, k*nb)
	for i := range c.words {
		c.streamBlocks(blocks[i*nb:(i+1)*nb], &c.docs[c.words[i].doc], c.words[i].pos)
	}
	c.s.stream.EncryptBlocks(blocks)
	sw, xw, xs := grow(&c.sw, k*nm), grow(&c.xw, k*n), grow(&c.xs, k*n)
	for i := range c.words {
		chunk(sw[i*nm:(i+1)*nm], blocks[i*nb:(i+1)*nb])
	}

	// Pass 2: encrypting, X_i = E(W_i) of every word in one call.
	if encrypt {
		for i := range c.words {
			copy(xs[i*n:], c.words[i].src)
		}
		c.pre.EncryptAllInto(xw, xs, k)
	}

	// Pass 3: L_i — decrypting, C_i's left part ⊕ S_i — looked up in the
	// memo in word order, then f of every L_i the memo lacks in one call.
	ls := grow(&c.ls, k*nm)
	misses := 0
	for i := range c.words {
		w := &c.words[i]
		l := xw[i*n : i*n+nm]
		if !encrypt {
			xor(l, w.src[:nm], sw[i*nm:(i+1)*nm])
		}
		var miss bool
		w.slot, miss = c.lookup(l, w.first)
		w.key = -1
		if miss {
			w.key = misses
			copy(ls[misses*nm:], l)
			misses++
		}
	}
	ks := grow(&c.ks, misses*crypto.KeySize)
	if misses > 0 {
		c.f.SumAllInto(ks, ls[:misses*nm], misses)
	}

	// Pass 4: in word order, F re-keyed where the memo lacked k_i, then
	// F_{k_i}(S_i): encrypting, into C_i = X_i ⊕ ⟨S_i, F_{k_i}(S_i)⟩, where
	// a slot that took a new L_i forgets its W; decrypting, into R_i = C_i's
	// right part ⊕ F_{k_i}(S_i).
	for i := range c.words {
		w := &c.words[i]
		if w.key >= 0 {
			w.slot.kprf.Rekey(crypto.Key(ks[w.key*crypto.KeySize:]))
		}
		s, x := sw[i*nm:(i+1)*nm], xw[i*n:(i+1)*n]
		if encrypt {
			if w.key >= 0 {
				w.slot.hasW = false
			}
			xor(w.dst[:nm], x[:nm], s)
			w.slot.kprf.SumInto(w.dst[nm:], s)
			xor(w.dst[nm:], w.dst[nm:], x[nm:])
			continue
		}
		w.slot.kprf.SumInto(x[nm:], s)
		xor(x[nm:], x[nm:], w.src[nm:])
	}

	if !encrypt {
		c.invert(xw, xs)
	}

	// The current document stays, its AES_K(docID) computed.
	c.docs[0] = c.docs[len(c.docs)-1]
	c.docs, c.enc = c.docs[:1], 1
	clear(c.words) // drop the references to the caller's buffers
	c.words = c.words[:0]
}

// invert is a decryption run's pass 5: the W decisions replayed in word
// order — a slot that took a new L_i forgets its W — then E⁻¹ of every
// X_i (packed in xw) the memo lacks in one call, through xs.
func (c *Codec) invert(xw, xs []byte) {
	n := c.s.params.WordLen
	misses := 0
	for i := range c.words {
		w := &c.words[i]
		slot, x := w.slot, xw[i*n:(i+1)*n]
		if w.key >= 0 {
			slot.hasW = false
		}
		if slot.hasW && subtle.ConstantTimeCompare(slot.x, x) == 1 {
			if w.from = slot.pend; w.from < 0 {
				copy(w.dst, slot.w)
			}
			continue
		}
		copy(slot.x, x)
		slot.hasW, slot.pend, w.from = true, misses, misses
		copy(xs[misses*n:], x)
		misses++
	}
	ws := grow(&c.ws, misses*n)
	if misses > 0 {
		c.pre.DecryptAllInto(ws, xs[:misses*n], misses)
	}
	for i := range c.words {
		w := &c.words[i]
		if w.from >= 0 {
			copy(w.dst, ws[w.from*n:])
		}
		if slot := w.slot; slot.pend >= 0 {
			copy(slot.w, ws[slot.pend*n:])
			slot.pend = -1
		}
	}
}

// lookup returns the memo slot for the word value whose L_i is l — the
// first slot for a word queued before the memo existed — and whether the
// slot held another value, in which case it now holds l, with F still to
// be re-keyed to k_i.
func (c *Codec) lookup(l []byte, first bool) (slot *memoSlot, miss bool) {
	slot = &c.first
	if !first {
		slot = &c.memo[l[0]%memoSlots]
	}
	if slot.used && subtle.ConstantTimeCompare(slot.l, l) == 1 {
		return slot, false
	}
	copy(slot.l, l)
	slot.used = true
	return slot, true
}

// newMemo allocates a word memo for the scheme's words: the slots, one
// buffer their byte fields are cut from, and in each slot a copy of kprf,
// an F of the codec's input length for the slot to re-key.
func newMemo(p Params, kprf *crypto.BlockPRF) *[memoSlots]memoSlot {
	memo := new([memoSlots]memoSlot)
	nm, size := p.streamLen(), p.streamLen()+2*p.WordLen
	buf := make([]byte, size*memoSlots)
	for i := range memo {
		memo[i] = newSlot(buf[size*i:size*(i+1)], nm, p.WordLen, kprf.Clone())
	}
	return memo
}

// xor sets dst to a ⊕ b, all three of one length: a plain loop, which
// for the few bytes of a word costs less than a call to subtle.XORBytes.
func xor(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// grow returns the first n elements of *buf, reallocated if it is
// shorter.
func grow[T any](buf *[]T, n int) []T {
	if len(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// codecOn returns a fresh codec positioned on docID, for the one-shot
// methods below; callers with more than one document should hold a Codec.
func (s *Scheme) codecOn(docID []byte) (*Codec, error) {
	c := s.NewCodec()
	return c, c.SetDocument(docID)
}

// EncryptWord encrypts the word at position pos of the document identified
// by docID. The word must be exactly WordLen bytes.
func (s *Scheme) EncryptWord(docID []byte, pos uint64, word []byte) ([]byte, error) {
	return s.word(docID, pos, word, (*Codec).EncryptWordInto)
}

// DecryptWord decrypts the ciphertext word at position pos of document
// docID.
func (s *Scheme) DecryptWord(docID []byte, pos uint64, cipherword []byte) ([]byte, error) {
	return s.word(docID, pos, cipherword, (*Codec).DecryptWordInto)
}

// word runs one of a codec's word methods on a fresh codec.
func (s *Scheme) word(docID []byte, pos uint64, src []byte, word func(c *Codec, dst []byte, pos uint64, src []byte) error) ([]byte, error) {
	c, err := s.codecOn(docID)
	if err != nil {
		return nil, err
	}
	out := make([]byte, s.params.WordLen)
	if err := word(c, out, pos, src); err != nil {
		return nil, err
	}
	return out, nil
}

// document runs one of a codec's word methods over a whole document, then
// the run it may have queued.
func (s *Scheme) document(docID []byte, words [][]byte, word func(c *Codec, dst []byte, pos uint64, src []byte) error) ([][]byte, error) {
	c, err := s.codecOn(docID)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(words))
	for i, w := range words {
		out[i] = make([]byte, s.params.WordLen)
		if err := word(c, out[i], uint64(i), w); err != nil {
			return nil, fmt.Errorf("swp: document %x word %d: %w", docID, i, err)
		}
	}
	c.DecryptRun()
	return out, nil
}

// EncryptDocument encrypts all words of a document. Positions are the slice
// indices; all words must be exactly WordLen bytes, and docID DocIDLen.
func (s *Scheme) EncryptDocument(docID []byte, words [][]byte) ([][]byte, error) {
	return s.document(docID, words, (*Codec).EncryptWordInto)
}

// DecryptDocument decrypts all words of a document: one run.
func (s *Scheme) DecryptDocument(docID []byte, cipherwords [][]byte) ([][]byte, error) {
	return s.document(docID, cipherwords, (*Codec).QueueWord)
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
// WordLen bytes. X and K share one allocation.
func (s *Scheme) NewTrapdoor(word []byte) (Trapdoor, error) {
	n := s.params.WordLen
	token := make([]byte, n+crypto.KeySize)
	if err := s.TrapdoorInto(token, word); err != nil {
		return Trapdoor{}, err
	}
	return Trapdoor{X: token[:n:n], K: token[n:]}, nil
}

// TrapdoorInto writes the trapdoor for a word into token as X ‖ K, the
// form a query carries it in: token must be WordLen + crypto.KeySize
// bytes, and word WordLen bytes, which may be token's first WordLen, so
// that a query is built in the one buffer it is sent in.
func (s *Scheme) TrapdoorInto(token, word []byte) error {
	n := s.params.WordLen
	if len(word) != n {
		return fmt.Errorf("swp: trapdoor word must be %d bytes, got %d", n, len(word))
	}
	if len(token) != n+crypto.KeySize {
		return fmt.Errorf("swp: trapdoor token must be %d bytes, got %d", n+crypto.KeySize, len(token))
	}
	// A trapdoor is the first half of encrypting the word, so it runs on a
	// codec's E and f; one select makes one, hence the pool.
	c, _ := s.idle.Get().(*Codec)
	if c == nil {
		c = s.NewCodec()
	}
	c.pre.EncryptInto(token[:n], word)
	c.f.SumInto(token[n:], token[:s.params.streamLen()])
	s.idle.Put(c)
	return nil
}

// SearchDocument returns the positions of all cipherwords in the document
// that match the trapdoor. Server-side, key-free.
func SearchDocument(p Params, cipherwords [][]byte, td Trapdoor) []int {
	return NewMatcher(p, td).Search(cipherwords, nil)
}
