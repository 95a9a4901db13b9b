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
// crypto.AES256, and a codec's run (Codec.EncryptRun, Codec.DecryptRun)
// gives AES only batches: G, f and E over every word that needs them, the
// k_i the memo lacks expanded four side by side (crypto.ExpandKeys), and
// F of every word under its own k_i in one call per block of S_i
// (crypto.EncryptBlocksKeyed), so client-side no step is an AES call per
// word. The assumptions are the textbook reductions:
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
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// The run. A word is its index: QueueWord copies its source into one
// packed buffer, and a run writes every image into another, Out, so a
// queued word holds no pointer. From pass 3 on a word's parts are
// zero-padded 16-byte blocks, so no pass loops over bytes. A run works in
// passes, so that AES meets independent blocks in batches instead of one
// dependent block at a time, and no pass makes a call per word:
//  1. every queued document's AES_K(docID) in one call, then every
//     word's stream blocks in one call;
//  2. encrypting only: X_i = E_{k”}(W_i) of every word in one batched
//     call;
//  3. L_i — X_i's left part, or decrypting C_i's left part ⊕ S_i —
//     looked up in the memo in word order; f_{k'} of every L_i the memo
//     lacks in one batched call, and their k_i expanded side by side
//     (crypto.ExpandKeys), each into its slot's schedule;
//  4. F_{k_i}(S_i) of every word, each under its own k_i, in one
//     crypto.EncryptBlocksKeyed call per block of S_i; then in word
//     order, encrypting, C_i = X_i ⊕ ⟨S_i, F_{k_i}(S_i)⟩; decrypting,
//     R_i = C_i's right part ⊕ F_{k_i}(S_i), and X_i = ⟨L_i, R_i⟩ looked
//     up in the memo;
//  5. decrypting only: E⁻¹ in one batch over every X_i the memo lacks.
//
// EncryptWordInto and DecryptWordInto are runs of one word, and
// EncryptDocument and DecryptDocument runs of one document.
//
// The memo. k_i = f_{k'}(L_i) and W_i = E⁻¹(X_i) are functions of the word
// value alone (L_i and X_i are E's output on it), so a codec remembers, in
// a fixed direct-mapped memo of memoSlots slots indexed by L_i's first
// byte — uniform, since L_i is part of a PRP output — each L_i it met with
// F_{k_i}'s expanded schedule, and the last X_i it decrypted under it
// with W_i. A word whose L_i is in its slot skips f and the key expansion
// in either direction; a decrypted word whose whole X_i is there skips
// E⁻¹ too — its L_i is the slot's, so the slot keeps and compares only
// X_i's right part. Slots are compared in constant time and overwritten
// on collision. A run takes exactly the decisions a word-at-a-time codec
// takes in word order — which lookups hit, which slot a word evicts,
// which tampered R part misses — and a word's F runs under the schedule
// its own lookup found: a slot names its schedule by index, and a miss
// on a slot that an earlier word of the run looked up moves the slot to
// a spare schedule, freeing the old one only when F has run, so a slot
// re-keyed later in the run cannot change an earlier word's F. So the
// memo changes no output bit, and a codec holds one schedule per slot
// plus one per such re-keying in its busiest run. Values repeat across documents, not within one (core's
// words each carry their column), so a codec's first document runs on
// one slot of its own and the memo is allocated when a second document
// begins. It lives until Reset (core resets a pooled codec at the start
// of every call, so it lives for one call) and never leaves Alex's side.
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
	nb    int                       // stream blocks per word, ⌈(n−m)/16⌉: L_i's blocks too
	wb    int                       // blocks per word, ⌈n/16⌉
	lmask [crypto.BlockPRFSize]byte // the bytes of S_i and L_i in their last block
	rmask [crypto.BlockPRFSize]byte // the m bytes of F_{k_i}(S_i) and R_i
	wmask [crypto.BlockPRFSize]byte // the bytes of a word in its last block
	onDoc bool                      // SetDocument has positioned the codec

	// The run: the documents since the last run, the current one last —
	// docs[:enc] already AES_K(docID), the rest still docID — the words
	// queued on them, their sources packed WordLen bytes apiece, the
	// destinations QueueWord was given, and the images of the last run
	// with a spare block past them.
	docs  [][crypto.BlockPRFSize]byte
	enc   int
	words []runWord
	in    []byte
	dsts  [][]byte
	out   []byte

	// Pass scratch, grown to the largest run: the words' stream blocks;
	// each word's left part (L_i, or C_i's) in nb zero-padded blocks and
	// its right part in one; F's chains; the L_i the memo lacks, their
	// k_i and the schedule each is expanded into; each word's F schedule;
	// the X_i the memo lacks and their W_i.
	blocks, ls, rs, chains [][crypto.BlockPRFSize]byte
	fl, ks                 [][crypto.BlockPRFSize]byte
	kdst, ki               []uint32
	xs, ws                 []byte

	// keys holds F's schedules, each slot naming its own; spare lists
	// those no slot names, and freed those the run's misses took off
	// slots whose schedule an earlier word of the run still needs.
	keys         []crypto.AES256
	spare, freed []uint32

	// The memo: slot 0 is the first slot, 1+j memo slot j once a second
	// document has begun. Slot s's L_i is ml[s·nb:(s+1)·nb], the R part of
	// the last X_i decrypted under it is mr[s] (its left part is L_i), and
	// that X_i's W_i is mw[s·wb:(s+1)·wb], all zero-padded blocks.
	slots      []memoSlot
	ml, mr, mw [][crypto.BlockPRFSize]byte
}

// runWord is one queued word and, once its run has looked it up, its
// memo decisions; it holds no pointer.
type runWord struct {
	pos   uint64
	doc   int32 // its document's index in docs
	dst   int32 // its destination's index in dsts; -1: Out only
	slot  int32 // its memo slot
	from  int32 // index of its W_i among the run's E⁻¹ outputs; -1: taken from the slot
	miss  bool  // its slot did not hold its L_i
	first bool  // queued before the memo existed: decided by the first slot
}

// memoSlots is the size of a codec's word memo: a power of two up to 256,
// so that L_i's first byte modulo it is a uniform index.
const memoSlots = 64

// memoSlot is what a memo slot holds besides its blocks.
type memoSlot struct {
	used  bool   // it holds an L_i, and its schedule is that k_i's
	hasW  bool   // it holds an X_i decrypted under that L_i, and its W_i
	inRun bool   // a word of the current run has looked it up
	key   uint32 // its schedule's index in keys
	pend  int32  // during a run, W_i's index among the E⁻¹ outputs; else -1
}

// NewCodec returns a codec for the scheme, not yet on any document.
func (s *Scheme) NewCodec() *Codec {
	n, nm := s.params.WordLen, s.params.streamLen()
	c := &Codec{s: s, pre: s.pre.Clone(), f: s.f.Clone(), nb: blocks(nm), wb: blocks(n)}
	c.lmask = crypto.LowBytes(nm - crypto.BlockPRFSize*(c.nb-1))
	c.rmask = crypto.LowBytes(s.params.ChecksumLen)
	c.wmask = crypto.LowBytes(n - crypto.BlockPRFSize*(c.wb-1))
	c.out = make([]byte, crypto.BlockPRFSize) // no images yet, and the spare block
	c.growMemo(1)
	return c
}

// blocks is ⌈n/16⌉.
func blocks(n int) int { return (n + crypto.BlockPRFSize - 1) / crypto.BlockPRFSize }

// growMemo gives the memo n slots, keeping those it has.
func (c *Codec) growMemo(n int) {
	c.keys = slices.Grow(c.keys, n-len(c.slots))
	for len(c.slots) < n {
		c.slots = append(c.slots, memoSlot{key: c.schedule(), pend: -1})
	}
	grow(&c.ml, n*c.nb)
	grow(&c.mr, n)
	grow(&c.mw, n*c.wb)
}

// schedule returns the index of a schedule no slot names: a spare one,
// or a new one.
func (c *Codec) schedule() uint32 {
	if n := len(c.spare); n > 0 {
		k := c.spare[n-1]
		c.spare = c.spare[:n-1]
		return k
	}
	c.keys = append(c.keys, crypto.AES256{})
	return uint32(len(c.keys) - 1)
}

// Reset takes the codec off its document, drops any queued words and
// empties its memo, keeping every buffer: afterwards it answers exactly
// as a fresh codec does, which is what lets core pool codecs across calls.
func (c *Codec) Reset() {
	c.onDoc = false
	c.drop()
	c.docs, c.enc = c.docs[:0], 0
	for i := range c.slots {
		c.slots[i].used, c.slots[i].hasW = false, false
	}
}

// drop empties the queue.
func (c *Codec) drop() {
	clear(c.dsts) // drop the references to the caller's buffers
	c.words, c.in, c.dsts = c.words[:0], c.in[:0], c.dsts[:0]
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
	if c.onDoc && len(c.slots) == 1 {
		c.growMemo(1 + memoSlots)
	}
	c.onDoc = true
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

// QueueWord queues the word at position pos of the current document for
// the next run, which writes the word's image — its cipherword under
// EncryptRun, its plaintext under DecryptRun — to Out and, if dst is not
// nil, into dst. src must be exactly WordLen bytes, and so must dst
// unless it is nil; src is copied, so it is free again on return, and
// dst must stay untouched until the run.
func (c *Codec) QueueWord(dst []byte, pos uint64, src []byte) error {
	if n := c.s.params.WordLen; len(src) != n || (dst != nil && len(dst) != n) {
		return fmt.Errorf("swp: word must be %d bytes, got %d (into %d)", n, len(src), len(dst))
	}
	if !c.onDoc {
		return fmt.Errorf("swp: codec used before SetDocument")
	}
	c.words = append(c.words, runWord{})
	w := &c.words[len(c.words)-1] // filled in place: a word built aside and copied stalls on its own stores
	w.pos, w.doc, w.dst, w.first = pos, int32(len(c.docs)-1), -1, len(c.slots) == 1
	if dst != nil {
		w.dst = int32(len(c.dsts))
		c.dsts = append(c.dsts, dst)
	}
	c.in = append(c.in, src...)
	return nil
}

// Out returns the images of the last run's words, WordLen bytes apiece in
// the order they were queued. It is valid until the next run.
func (c *Codec) Out() []byte { return c.out[:len(c.out)-crypto.BlockPRFSize] }

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

// EncryptRun encrypts every queued word, in the passes the type's comment
// lists, and empties the queue; the codec stays on its current document.
func (c *Codec) EncryptRun() { c.run(true) }

// DecryptRun decrypts every queued word, in the passes the type's comment
// lists, and empties the queue; the codec stays on its current document.
func (c *Codec) DecryptRun() { c.run(false) }

// run is the one body of both directions. A word's parts live in
// zero-padded blocks from pass 3 on, read from and written to its bytes
// with whole blocks in ascending order, so every buffer that holds words
// — its input, Out and E⁻¹'s input and output — has a block to spare past
// its end. Passes 3 to 5 are methods of their own.
func (c *Codec) run(encrypt bool) {
	k := len(c.words)
	if k == 0 {
		return
	}
	n := c.s.params.WordLen
	var pad [crypto.BlockPRFSize]byte
	c.in = append(c.in, pad[:]...)
	out, x := grow(&c.out, k*n+len(pad)), c.in

	// Pass 1: AES_K(docID) of the run's documents, then the words' stream
	// blocks, each in one call; S_i is their first n−m bytes.
	c.encryptDocs()
	blocks := grow(&c.blocks, k*c.nb)
	for i, w := range c.words {
		c.streamBlocks(blocks[i*c.nb:(i+1)*c.nb], &c.docs[w.doc], w.pos)
	}
	c.s.stream.EncryptBlocks(blocks)

	// Pass 2: encrypting, X_i = E(W_i) of every word in one call.
	if encrypt {
		c.pre.EncryptAllInto(out[:k*n], c.in[:k*n], k)
		x = out
	}

	// Pass 3: the memo's L_i decisions, then f of every L_i it lacks in
	// one call and their schedules expanded side by side. A run whose
	// misses took more spare schedules than the codec had copies the
	// grown table into one of its length, for a codec keeps its table as
	// long as it lives.
	had := len(c.keys)
	misses := c.split(x, blocks, encrypt)
	if len(c.keys) > had {
		c.keys = append([]crypto.AES256(nil), c.keys...)
	}
	ks := grow(&c.ks, 2*misses)
	c.f.SumBlocks(ks, c.fl[:misses*c.nb], misses)
	crypto.ExpandKeys(c.keys, c.kdst, ks)

	// Pass 4: F of every word under its own schedule, after which the
	// schedules the run's misses took off their slots are spare; then
	// each word's image or its X_i.
	chains := c.checksums(blocks)
	c.spare, c.freed = append(c.spare, c.freed...), c.freed[:0]
	for _, w := range c.words {
		c.slots[w.slot].inRun = false
	}
	misses = c.join(out, blocks, chains, encrypt)

	// Pass 5: decrypting, E⁻¹ of every X_i the memo lacks in one call.
	if !encrypt {
		c.invert(out, misses)
	}
	c.out = out
	for i := 0; len(c.dsts) > 0 && i < k; i++ {
		if w := c.words[i]; w.dst >= 0 {
			copy(c.dsts[w.dst], out[i*n:(i+1)*n])
		}
	}

	// The current document stays, its AES_K(docID) computed.
	c.docs[0] = c.docs[len(c.docs)-1]
	c.docs, c.enc = c.docs[:1], 1
	c.drop()
}

// split is pass 3. It reads every word's left part — X_i's, or
// decrypting C_i's ⊕ S_i, which is L_i — and its right part from x into
// blocks, then, in word order, looks each L_i up in the memo: the slot is
// 0 for a word queued before the memo existed, else 1 + L_i's first byte
// mod memoSlots; a slot that holds another value takes L_i, the word's
// L_i joins fl for f, and kdst names the schedule its k_i goes into: the
// slot's, moved first to a spare one if an earlier word of the run
// looked the slot up. ki[i] names the schedule the word's F runs under,
// the slot's after its lookup. It returns the number of misses.
func (c *Codec) split(x []byte, blocks [][crypto.BlockPRFSize]byte, encrypt bool) int {
	k, n, nm, nb := len(c.words), c.s.params.WordLen, c.s.params.streamLen(), c.nb
	ls, rs := grow(&c.ls, k*nb), grow(&c.rs, k)
	lmask, rmask := c.lmask, c.rmask
	for i := range rs {
		l, s := ls[i*nb:(i+1)*nb], blocks[i*nb:(i+1)*nb]
		for b := range l {
			l[b] = [crypto.BlockPRFSize]byte(x[i*n+b*crypto.BlockPRFSize:])
			if !encrypt {
				crypto.XORBlock(&l[b], &s[b])
			}
		}
		crypto.ANDBlock(&s[nb-1], &lmask)
		crypto.ANDBlock(&l[nb-1], &lmask)
		rs[i] = [crypto.BlockPRFSize]byte(x[i*n+nm:])
		crypto.ANDBlock(&rs[i], &rmask)
	}

	fl, ki, kdst := grow(&c.fl, k*nb), grow(&c.ki, k), c.kdst[:0]
	words, slots, ml := c.words, c.slots, c.ml
	for i := range words {
		w, l := &words[i], ls[i*nb:(i+1)*nb]
		s := int32(0)
		if !w.first {
			s = 1 + int32(l[0][0]%memoSlots)
		}
		slot, m := &slots[s], ml[int(s)*nb:int(s+1)*nb]
		w.slot, w.miss = s, !slot.used || !crypto.EqualBlocks(m, l)
		if w.miss {
			if slot.inRun {
				c.freed = append(c.freed, slot.key)
				slot.key = c.schedule()
			}
			copy(m, l)
			copy(fl[len(kdst)*nb:], l)
			kdst = append(kdst, slot.key)
			slot.used = true
		}
		slot.inRun, ki[i] = true, slot.key
	}
	c.kdst = kdst
	return len(kdst)
}

// checksums is pass 4's F: the CBC-MAC of every word's S_i under the
// schedule ki names, one EncryptBlocksKeyed call per block of S_i.
func (c *Codec) checksums(blocks [][crypto.BlockPRFSize]byte) [][crypto.BlockPRFSize]byte {
	k, nb := len(c.words), c.nb
	chains, ki := grow(&c.chains, k), c.ki[:k]
	for b := range nb {
		for i := range chains {
			if b == 0 {
				chains[i] = blocks[i*nb]
			} else {
				crypto.XORBlock(&chains[i], &blocks[i*nb+b])
			}
		}
		crypto.EncryptBlocksKeyed(c.keys, ki, chains)
	}
	return chains
}

// join is the rest of pass 4, in word order: a slot that took a new L_i
// forgets its W; encrypting, C_i = X_i ⊕ ⟨S_i, F_{k_i}(S_i)⟩ goes to out;
// decrypting, R_i = C_i's right part ⊕ F_{k_i}(S_i), and X_i = ⟨L_i,
// R_i⟩ is looked up in the slot L_i is in — a hit if the slot holds R_i
// — where a hit takes the slot's W_i and a miss is set aside in xs for
// E⁻¹. It returns the number of X_i set aside.
func (c *Codec) join(out []byte, blocks, chains [][crypto.BlockPRFSize]byte, encrypt bool) int {
	k, n, nm, nb, wb := len(c.words), c.s.params.WordLen, c.s.params.streamLen(), c.nb, c.wb
	words, slots, mr, mw, ls, rs := c.words, c.slots, c.mr, c.mw, c.ls, c.rs
	rmask, xs, misses := c.rmask, grow(&c.xs, k*n+crypto.BlockPRFSize), 0
	for i := range words {
		w, l, r := &words[i], ls[i*nb:(i+1)*nb], rs[i:i+1]
		slot := &slots[w.slot]
		if w.miss {
			slot.hasW = false
		}
		crypto.ANDBlock(&chains[i], &rmask)
		crypto.XORBlock(&r[0], &chains[i])
		if encrypt {
			for b := range l {
				crypto.XORBlock(&l[b], &blocks[i*nb+b])
			}
			store(out, i*n, nm, l, r)
			continue
		}
		m := mr[w.slot : w.slot+1]
		if slot.hasW && crypto.EqualBlocks(m, r) {
			if w.from = slot.pend; w.from < 0 {
				store(out, i*n, 0, mw[int(w.slot)*wb:int(w.slot+1)*wb], nil)
			}
			continue
		}
		m[0] = r[0]
		store(xs, misses*n, nm, l, r)
		slot.hasW, slot.pend, w.from = true, int32(misses), int32(misses)
		misses++
	}
	return misses
}

// invert is pass 5: E⁻¹ of the misses X_i set aside in one call, and each
// W_i into out and into its slot.
func (c *Codec) invert(out []byte, misses int) {
	n, wb := c.s.params.WordLen, c.wb
	ws := grow(&c.ws, misses*n+crypto.BlockPRFSize)
	c.pre.DecryptAllInto(ws[:misses*n], c.xs[:misses*n], misses)
	slots, mw, wmask := c.slots, c.mw, c.wmask
	for i, w := range c.words {
		if w.from >= 0 {
			copy(out[i*n:(i+1)*n], ws[int(w.from)*n:])
		}
		if slot := &slots[w.slot]; slot.pend >= 0 {
			m := mw[int(w.slot)*wb : int(w.slot+1)*wb]
			for b := range m {
				m[b] = [crypto.BlockPRFSize]byte(ws[int(slot.pend)*n+b*crypto.BlockPRFSize:])
			}
			crypto.ANDBlock(&m[wb-1], &wmask)
			slot.pend = -1
		}
	}
}

// store writes a word's image at buf[at:] from zero-padded blocks: the
// blocks l, then, if there is one, the block r from byte nm on. Each
// block is written whole, over the padding of the one before and up to a
// block past the word, which the next word in ascending order, or the
// spare block at buf's end, takes.
func store(buf []byte, at, nm int, l, r [][crypto.BlockPRFSize]byte) {
	for b := range l {
		*(*[crypto.BlockPRFSize]byte)(buf[at+b*crypto.BlockPRFSize:]) = l[b]
	}
	for _, b := range r {
		*(*[crypto.BlockPRFSize]byte)(buf[at+nm:]) = b
	}
}

// grow returns the first n elements of *buf, reallocated if it is
// shorter, with the elements it had.
func grow[T any](buf *[]T, n int) []T {
	if len(*buf) < n {
		*buf = append(*buf, make([]T, n-len(*buf))...)
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
