package swp

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/swp/swptest"
)

// codecFixture is a few documents of distinct words under one scheme.
func codecFixture(t *testing.T, p Params) (s *Scheme, docIDs [][]byte, docs [][][]byte) {
	t.Helper()
	s = newTestScheme(t, p)
	for d := 0; d < 4; d++ {
		docIDs = append(docIDs, bytes.Repeat([]byte{byte(d + 1)}, DocIDLen))
		words := make([][]byte, 5)
		for i := range words {
			words[i] = make([]byte, p.WordLen)
			for j := range words[i] {
				words[i][j] = byte(31*d + 7*i + j)
			}
		}
		docs = append(docs, words)
	}
	return s, docIDs, docs
}

// TestCodecIsTheWrappers: one codec moved from document to document and
// back produces, word for word, the bytes the one-shot methods produce on a
// fresh codec each — nothing of one document or word survives in the
// scratch into the next.
func TestCodecIsTheWrappers(t *testing.T) {
	for _, nm := range benchStreamWidths {
		p := Params{WordLen: nm + 2, ChecksumLen: 2}
		s, docIDs, docs := codecFixture(t, p)
		c := s.NewCodec()
		cw, pt := make([]byte, p.WordLen), make([]byte, p.WordLen)
		for _, d := range []int{0, 1, 2, 3, 2, 0} {
			want, err := s.EncryptDocument(docIDs[d], docs[d])
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SetDocument(docIDs[d]); err != nil {
				t.Fatal(err)
			}
			for i := len(docs[d]) - 1; i >= 0; i-- { // positions in any order
				if err := c.EncryptWordInto(cw, uint64(i), docs[d][i]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cw, want[i]) {
					t.Fatalf("%+v doc %d word %d: codec wrote %x, EncryptDocument %x", p, d, i, cw, want[i])
				}
				if one, err := s.EncryptWord(docIDs[d], uint64(i), docs[d][i]); err != nil || !bytes.Equal(one, cw) {
					t.Fatalf("%+v doc %d word %d: EncryptWord wrote %x (%v), codec %x", p, d, i, one, err, cw)
				}
				if err := c.DecryptWordInto(pt, uint64(i), cw); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pt, docs[d][i]) {
					t.Fatalf("%+v doc %d word %d: codec decrypted %x, want %x", p, d, i, pt, docs[d][i])
				}
			}
		}
	}
}

// keyAllocs is what one AES-256 key expansion allocates on the path this
// process runs: nothing on the AES-NI kernel, which expands in place, and
// the crypto/aes cipher elsewhere (FIPS 140-3 mode, purego, other
// architectures).
func keyAllocs() float64 {
	var f crypto.BlockPRF
	return testing.AllocsPerRun(10, func() { f.Rekey(crypto.Key{}) })
}

// TestCodecWordAllocs: a word costs no allocation in either direction on
// the AES-NI path — its k_i is expanded in place into a memo slot's F —
// and at most one on the crypto/aes path, the cipher of its k_i, which no
// scratch can absorb there because k_i differs per word value; at
// one-block and CBC-MAC stream widths alike. A word value the codec's
// memo already holds costs none on either.
func TestCodecWordAllocs(t *testing.T) {
	perWord := keyAllocs()
	for _, nm := range benchStreamWidths {
		p := Params{WordLen: nm + 2, ChecksumLen: 2}
		s, docIDs, docs := codecFixture(t, p)
		c := s.NewCodec()
		c.SetDocument(docIDs[1])
		cw, pt := make([]byte, p.WordLen), make([]byte, p.WordLen)
		words := docs[1]
		if allocs := testing.AllocsPerRun(200, func() {
			for i, w := range words {
				_ = c.EncryptWordInto(cw, uint64(i), w)
			}
		}); allocs > perWord*float64(len(words)) {
			t.Errorf("stream width %d: EncryptWordInto allocates %v objects per %d words, want at most %v each", nm, allocs, len(words), perWord)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			for i := range words {
				_ = c.DecryptWordInto(pt, uint64(i), cw)
			}
		}); allocs > perWord*float64(len(words)) {
			t.Errorf("stream width %d: DecryptWordInto allocates %v objects per %d words, want at most %v each", nm, allocs, len(words), perWord)
		}
		// On its second document a codec's memo is up: a word value it
		// has met comes out of it.
		c = s.NewCodec()
		c.SetDocument(docIDs[0])
		c.SetDocument(docIDs[1])
		if err := c.EncryptWordInto(cw, 3, words[3]); err != nil {
			t.Fatal(err)
		}
		if err := c.DecryptWordInto(pt, 3, cw); err != nil || !bytes.Equal(pt, words[3]) {
			t.Fatalf("stream width %d: decrypted %x (%v), want %x", nm, pt, err, words[3])
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = c.DecryptWordInto(pt, 3, cw) }); allocs != 0 {
			t.Errorf("stream width %d: a memo-hit DecryptWordInto allocates %v objects, want none", nm, allocs)
		}
	}
}

// TestCodecMemoTamperedWord: a cipherword of a value the codec has
// decrypted before, with its R part flipped, keeps that value's L_i — the
// memo's k_i is right for it — but not its X_i, so it decrypts to E⁻¹ of
// the tampered X_i exactly as a codec that never saw the value does, not
// to the memoised word. The same holds when the honest copies were
// decrypted before a Reset, as by the previous call a pooled codec served.
func TestCodecMemoTamperedWord(t *testing.T) {
	for _, nm := range benchStreamWidths {
		p := Params{WordLen: nm + 2, ChecksumLen: 2}
		s, docIDs, docs := codecFixture(t, p)
		word := docs[0][0]
		tampered, err := s.EncryptWord(docIDs[1], 2, word)
		if err != nil {
			t.Fatal(err)
		}
		tampered[len(tampered)-1] ^= 1 // in R_i
		want, err := s.DecryptWord(docIDs[1], 2, tampered)
		if err != nil {
			t.Fatal(err)
		}
		for _, reset := range []bool{false, true} {
			c := s.NewCodec()
			pt := make([]byte, p.WordLen)
			for _, d := range []int{0, 2} { // the memo starts with the second document
				honest, err := s.EncryptWord(docIDs[d], 0, word)
				if err != nil {
					t.Fatal(err)
				}
				c.SetDocument(docIDs[d])
				if err := c.DecryptWordInto(pt, 0, honest); err != nil || !bytes.Equal(pt, word) {
					t.Fatalf("stream width %d: honest word decrypted to %x (%v)", nm, pt, err)
				}
			}
			if reset {
				c.Reset()
			}
			c.SetDocument(docIDs[1])
			if err := c.DecryptWordInto(pt, 2, tampered); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, want) || bytes.Equal(pt, word) {
				t.Fatalf("stream width %d, reset %v: tampered word decrypted to %x, memo-free %x, memoised %x", nm, reset, pt, want, word)
			}
		}
	}
}

func TestCodecRejectsMisuse(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 2})
	c := s.NewCodec()
	w := make([]byte, 8)
	if err := c.EncryptWordInto(w, 0, w); err == nil {
		t.Error("EncryptWordInto worked before SetDocument")
	}
	if err := c.QueueWord(w, 0, w); err == nil {
		t.Error("QueueWord worked before SetDocument")
	}
	// A document identifier is one AES block, never hashed or padded.
	for _, id := range [][]byte{nil, testDoc("d")[:DocIDLen-1], append(testDoc("d"), 0)} {
		if err := c.SetDocument(id); err == nil {
			t.Errorf("SetDocument accepted a %d-byte identifier", len(id))
		}
		if _, err := s.EncryptDocument(id, [][]byte{w}); err == nil {
			t.Errorf("EncryptDocument accepted a %d-byte identifier", len(id))
		}
		if _, err := s.DecryptWord(id, 0, w); err == nil {
			t.Errorf("DecryptWord accepted a %d-byte identifier", len(id))
		}
	}
	if err := c.EncryptWordInto(w, 0, w); err == nil {
		t.Error("EncryptWordInto worked after refused identifiers only")
	}
	if err := c.SetDocument(testDoc("d")); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"short word":       c.EncryptWordInto(w, 0, w[:7]),
		"short dst":        c.EncryptWordInto(w[:7], 0, w),
		"long cipherword":  c.DecryptWordInto(w, 0, make([]byte, 9)),
		"short plain dst":  c.DecryptWordInto(w[:7], 0, w),
		"empty cipherword": c.DecryptWordInto(w, 0, nil),
		"short queued":     c.QueueWord(w, 0, w[:7]),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	c.Reset()
	if err := c.DecryptWordInto(w, 0, w); err == nil {
		t.Error("DecryptWordInto worked after Reset, before SetDocument")
	}
}

// TestSchemeConcurrentCodecs drives one Scheme from 8 goroutines, each
// with its own codec, trapdoors through the shared pool in between. Every
// result must equal the serial one. Run under -race.
func TestSchemeConcurrentCodecs(t *testing.T) {
	for _, p := range []Params{{WordLen: 11, ChecksumLen: 2}, {WordLen: 42, ChecksumLen: 2}} {
		s, docIDs, docs := codecFixture(t, p)
		want := make([][][]byte, len(docs))
		for d := range docs {
			var err error
			if want[d], err = s.EncryptDocument(docIDs[d], docs[d]); err != nil {
				t.Fatal(err)
			}
		}
		wantTD, err := s.NewTrapdoor(docs[0][0])
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := func() error {
					c := s.NewCodec()
					cw, pt := make([]byte, p.WordLen), make([]byte, p.WordLen)
					for rep := 0; rep < 20; rep++ {
						d := (g + rep) % len(docs)
						c.SetDocument(docIDs[d])
						for i, w := range docs[d] {
							if err := c.EncryptWordInto(cw, uint64(i), w); err != nil {
								return err
							}
							if !bytes.Equal(cw, want[d][i]) {
								return fmt.Errorf("doc %d word %d encrypted to %x, serially %x", d, i, cw, want[d][i])
							}
							if err := c.DecryptWordInto(pt, uint64(i), cw); err != nil {
								return err
							}
							if !bytes.Equal(pt, w) {
								return fmt.Errorf("doc %d word %d decrypted to %x, want %x", d, i, pt, w)
							}
						}
						td, err := s.NewTrapdoor(docs[0][0])
						if err != nil {
							return err
						}
						if !bytes.Equal(td.X, wantTD.X) || !bytes.Equal(td.K, wantTD.K) {
							return fmt.Errorf("trapdoor %x|%x, serially %x|%x", td.X, td.K, wantTD.X, wantTD.K)
						}
					}
					return nil
				}(); err != nil {
					t.Errorf("%+v goroutine %d: %v", p, g, err)
				}
			}(g)
		}
		wg.Wait()
	}
}

// katWord is the word the known-answer vectors are taken on: n bytes
// 5i + 3·salt + n.
func katWord(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(5*i + 3*salt + n)
	}
	return b
}

// katDoc is the document the known-answer vectors are taken in.
var katDoc = []byte("kat-document-id!")

// TestCodecKnownAnswers pins a codec's words and a trapdoor, under the
// test scheme's key at a one-block (n = 11) and a CBC-MAC (n = 42) stream
// width: EncryptWordInto of katWord(n, pos) and DecryptWordInto of
// katWord(n, pos+10) at positions 0..2 of katDoc, and the trapdoor of
// katWord(n, 0). The word vectors were taken from swptest's textbook
// reference when the stream became CBC-MAC under one key (metaVersion
// 5); the trapdoors, which involve no stream, are the ones pinned before
// that change. CI runs it on both AES256 paths (the purego step takes
// crypto/aes).
func TestCodecKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		n        int
		enc, dec [3]string
		x, k     string
	}{
		{
			n:   11,
			enc: [3]string{"2b91682c98440e939176f4", "8622698bc3a5d26843a73a", "5dc88e18a8bb072ffea0ff"},
			dec: [3]string{"9002055ee587251116bfcb", "49fc1ffbe016bd74ec5596", "24f13be98ac2a5bcc472bf"},
			x:   "991da4540f32480290aee9",
			k:   "d35c96184d36b88b7f95cb0d2539e84d2234ecdbfcb395dfbc14a53ef685e071",
		},
		{
			n: 42,
			enc: [3]string{
				"04fefc83e7049d39148dfec4a65ad21a75880e513166eab25b49a61a56755f8017710d12ee8a51474a18",
				"069d5cd1ea1d7adf351adfc485d83c4e8e703155b6aedf49ab30bd1652a0e4a1a55aca5a4ccd083a11ad",
				"78b2692ac59494d22adb8f732111e7503a32c127dbdf694a08e2987504c30e0e0d443b3504fcbcae56cb",
			},
			dec: [3]string{
				"079fdb06fb69406004360dad28a8dfdf62247fb4f6d63e5c442d241b616d7dfe6f79c614361ebe182648",
				"5b2102e27a3f0ae7fd759a3835999b8ebe6a21f6b9bb913156691d86f7e19e31189eb43b572617551745",
				"92a65363b54ec0ab9ef92742ef908bf8fb9462d6e6f77af7adeeb8e78e953311826e73a283c480d5cf2f",
			},
			x: "b67230fb7072dba815bb721a63f00259813cc0e483f3a7869747d6894a0f99b7efca3f0505419251fbdb",
			k: "e1b0ed126dd8e00da7f7b7b872bdc632c0021cded45edcc764f5f00e6082489b",
		},
	} {
		s := newTestScheme(t, Params{WordLen: c.n, ChecksumLen: 2})
		codec := s.NewCodec()
		if err := codec.SetDocument(katDoc); err != nil {
			t.Fatal(err)
		}
		cw, pt := make([]byte, c.n), make([]byte, c.n)
		for pos := 0; pos < 3; pos++ {
			if err := codec.EncryptWordInto(cw, uint64(pos), katWord(c.n, pos)); err != nil {
				t.Fatal(err)
			}
			if err := codec.DecryptWordInto(pt, uint64(pos), katWord(c.n, pos+10)); err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(cw) != c.enc[pos] || hex.EncodeToString(pt) != c.dec[pos] {
				t.Errorf("n=%d position %d: encrypted %x, decrypted %x; want %s and %s", c.n, pos, cw, pt, c.enc[pos], c.dec[pos])
			}
		}
		td, err := s.NewTrapdoor(katWord(c.n, 0))
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(td.X) != c.x || hex.EncodeToString(td.K) != c.k {
			t.Errorf("n=%d: trapdoor %x|%x, want %s|%s", c.n, td.X, td.K, c.x, c.k)
		}
	}
}

// TestStreamKnownAnswers pins the stream function — S_i of positions 0..3
// of katDoc under the test scheme's stream key, at a one-block (n−m = 9)
// and a two-block (n−m = 17) width — to vectors taken from swptest's
// textbook reference, on the codec's own path (CBC-MAC of docID‖⟨j⟩
// batched through AES256). A 9-byte chunk at position 2 and a 17-byte
// one at position 1 share their counter block j = 2, so their first nine
// bytes agree.
func TestStreamKnownAnswers(t *testing.T) {
	for nm, want := range map[int][4]string{
		9:  {"b28ccc789776469101", "f4b4ceb5b2954d34cc", "f8bb3217ebcbc316ca", "98718f6ecd468d869f"},
		17: {"b28ccc789776469101368cdec5aad043f4", "f8bb3217ebcbc316ca9510387aa2e0da98", "1b3fabfddd906183860b836dc6ec09fdaf", "9bc84e8d2e0d5e9be0c02b08b7e40cb5c8"},
	} {
		c := newTestScheme(t, Params{WordLen: nm + 2, ChecksumLen: 2}).NewCodec()
		if err := c.SetDocument(katDoc); err != nil {
			t.Fatal(err)
		}
		c.encryptDocs()
		for pos, w := range want {
			blocks := make([][crypto.BlockPRFSize]byte, c.nb)
			c.streamBlocks(blocks, &c.docs[0], uint64(pos))
			c.s.stream.EncryptBlocks(blocks)
			got := make([]byte, nm)
			chunk(got, blocks)
			if hex.EncodeToString(got) != w {
				t.Errorf("n−m=%d position %d: stream %x, want %s", nm, pos, got, w)
			}
		}
	}
}

// slotState renders what a memo slot holds: its L_i if used, its X_i and
// W_i if it holds a decryption.
func slotState(s *memoSlot) string {
	out := fmt.Sprintf("used=%v hasW=%v", s.used, s.hasW)
	if s.used {
		out += fmt.Sprintf(" l=%x", s.l)
	}
	if s.hasW {
		out += fmt.Sprintf(" x=%x w=%x", s.x, s.w)
	}
	return out
}

// memoState renders a codec's first slot and, once it exists, its memo.
func memoState(c *Codec) []string {
	out := []string{slotState(&c.first)}
	if c.memo != nil {
		for i := range c.memo {
			out = append(out, slotState(&c.memo[i]))
		}
	}
	return out
}

// collidingValues returns two distinct words whose L_i share a memo slot,
// so that alternating them makes each evict the other.
func collidingValues(t *testing.T, ref *swptest.Ref, p Params) (a, b []byte) {
	t.Helper()
	seen := map[byte][]byte{}
	for v := 0; v < 1000; v++ {
		w := katWord(p.WordLen, 1000+v)
		x, _ := ref.Trapdoor(w)
		if other, ok := seen[x[0]%memoSlots]; ok {
			return other, w
		}
		seen[x[0]%memoSlots] = w
	}
	t.Fatal("no two values share a memo slot")
	return nil, nil
}

// memoModel is the word memo's specification, kept apart from the codec:
// words in order, the first slot until a second document, then slot
// L_i[0] mod memoSlots; a slot that meets another L_i takes it and forgets
// its W; a word whose whole X_i is in its slot is a W hit.
type memoModel struct {
	first            memoSlot
	slots            [memoSlots]memoSlot
	docs             int
	lHits, lEvicts   int
	wHits, wRefusals int // refusals: the slot's L_i matched, its X_i did not
}

func (m *memoModel) word(l, x, w []byte) {
	slot := &m.first
	if m.docs > 1 {
		slot = &m.slots[l[0]%memoSlots]
	}
	switch {
	case slot.used && bytes.Equal(slot.l, l):
		m.lHits++
	case slot.used:
		m.lEvicts++
		fallthrough
	default:
		slot.l, slot.used, slot.hasW = bytes.Clone(l), true, false
	}
	switch {
	case slot.hasW && bytes.Equal(slot.x, x):
		m.wHits++
	case slot.hasW:
		m.wRefusals++
		fallthrough
	default:
		slot.x, slot.w, slot.hasW = bytes.Clone(x), bytes.Clone(w), true
	}
}

// state renders the model as memoState renders a codec.
func (m *memoModel) state() []string {
	out := []string{slotState(&m.first)}
	if m.docs > 1 {
		for i := range m.slots {
			out = append(out, slotState(&m.slots[i]))
		}
	}
	return out
}

// TestRunMatchesTextbook is the differential test of DecryptRun against
// swptest's textbook reference, at stream widths of one block (9), two
// (17) and three (40): runs of 0 to RunDocs+3 documents — past RunDocs, a
// run longer than core ever queues — whose words repeat values within
// the run, alternate two values that share a memo slot and so evict each
// other, and carry a flipped bit in an L or an R part. Every word comes
// out as the reference has it, one run or one word at a time, and the
// memo ends as memoModel, fed the reference's X_i and W_i in word order,
// says: the run takes the sequential decisions.
func TestRunMatchesTextbook(t *testing.T) {
	for _, nm := range []int{9, 17, 40} {
		p := Params{WordLen: nm + 2, ChecksumLen: 2}
		s := newTestScheme(t, p)
		ref := swptest.New(testKey(9), p.WordLen, p.ChecksumLen)
		a, b := collidingValues(t, ref, p)
		values := [][]byte{a, b, katWord(p.WordLen, 1), katWord(p.WordLen, 2)}
		for _, docs := range []int{0, 1, 2, 5, RunDocs, RunDocs + 3} {
			var ids [][]byte
			var cws [][][]byte
			for d := 0; d < docs; d++ {
				id := testDoc(fmt.Sprintf("run-%d", d))
				words := [][]byte{values[d%2], values[2+d%2], values[(d/3)%4], katWord(p.WordLen, 100+d)}
				cw := make([][]byte, len(words))
				for i, w := range words {
					var err error
					if cw[i], err = ref.EncryptWord(id, uint64(i), w); err != nil {
						t.Fatal(err)
					}
				}
				switch d % 5 {
				case 3:
					cw[2][0] ^= 0x40 // in L_i
				case 4:
					cw[2][p.WordLen-1] ^= 0x01 // in R_i
				}
				ids, cws = append(ids, id), append(cws, cw)
			}
			run, seq := s.NewCodec(), s.NewCodec()
			var model memoModel
			got := make([][][]byte, docs)
			for d := range ids {
				if err := run.SetDocument(ids[d]); err != nil {
					t.Fatal(err)
				}
				got[d] = make([][]byte, len(cws[d]))
				for i, cw := range cws[d] {
					got[d][i] = make([]byte, p.WordLen)
					if err := run.QueueWord(got[d][i], uint64(i), cw); err != nil {
						t.Fatal(err)
					}
				}
			}
			run.DecryptRun()
			for d := range ids {
				if err := seq.SetDocument(ids[d]); err != nil {
					t.Fatal(err)
				}
				model.docs++
				for i, cw := range cws[d] {
					one := make([]byte, p.WordLen)
					if err := seq.DecryptWordInto(one, uint64(i), cw); err != nil {
						t.Fatal(err)
					}
					want, err := ref.DecryptWord(ids[d], uint64(i), cw)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[d][i], want) || !bytes.Equal(one, want) {
						t.Fatalf("n−m=%d, %d documents, document %d word %d: run %x, word at a time %x, reference %x", nm, docs, d, i, got[d][i], one, want)
					}
					x, err := ref.X(ids[d], uint64(i), cw)
					if err != nil {
						t.Fatal(err)
					}
					model.word(x[:nm], x, want)
				}
			}
			want := model.state()
			for name, c := range map[string]*Codec{"run": run, "word at a time": seq} {
				if got := memoState(c); !slices.Equal(got, want) {
					t.Fatalf("n−m=%d, %d documents: the %s codec's memo\n%v\ndiffers from the model's\n%v", nm, docs, name, got, want)
				}
			}
			if docs == RunDocs+3 && (model.lHits == 0 || model.lEvicts == 0 || model.wHits == 0 || model.wRefusals == 0) {
				t.Fatalf("n−m=%d: the inputs exercise too little of the memo: %+v", nm, model)
			}
		}
	}
}

// TestRunMemoIsLazy: a codec that decrypts no document, or one — what a
// pooled codec does for an empty or a one-tuple answer — allocates no
// memo; a second document does.
func TestRunMemoIsLazy(t *testing.T) {
	p := Params{WordLen: 11, ChecksumLen: 2}
	s, docIDs, docs := codecFixture(t, p)
	c := s.NewCodec()
	c.DecryptRun()
	if c.memo != nil {
		t.Fatal("an empty run allocated the memo")
	}
	for d := 0; d < 2; d++ {
		cws, err := s.EncryptDocument(docIDs[d], docs[d])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetDocument(docIDs[d]); err != nil {
			t.Fatal(err)
		}
		for i, cw := range cws {
			if err := c.QueueWord(make([]byte, p.WordLen), uint64(i), cw); err != nil {
				t.Fatal(err)
			}
		}
		c.DecryptRun()
		if (c.memo != nil) != (d == 1) {
			t.Fatalf("after %d documents the memo is allocated: %v", d+1, c.memo != nil)
		}
	}
}

// FuzzCodecRun is the differential target of both run directions against
// swptest's textbook reference. The input picks the stream width n−m
// (1..48), the checksum width m (1..16) and a script of two bytes a word:
// up to RunDocs+3 documents of 0 to 6 words, each word one of a pool of
// eight values (two of which share a memo slot, so that memo hits,
// evictions and slot collisions all happen) at the position its second
// byte names, with a bit of its L or R part flipped or not, and run
// boundaries between them. One codec encrypts the script, run by run, and
// every cipherword must be Ref.EncryptWord's byte for byte; a second
// decrypts the cipherwords, flipped ones included, with the same run
// boundaries, and every word must come back as Ref.DecryptWord has it —
// the word itself where nothing was flipped.
func FuzzCodecRun(f *testing.F) {
	// Value codes 0..7 are the pool, 8 starts a document, 9 ends a run; a
	// code's /10 picks no flip, a flipped L bit or a flipped R bit.
	collide := []byte{0, 0, 1, 1, 8, 0, 0, 1, 1, 0, 2, 8, 0, 0, 11, 1, 21, 2, 1, 3}
	var long []byte
	for d := 0; d < RunDocs+3; d++ {
		long = append(long, 8, 0, byte(d%8), 0, byte((d+1)%8), 1, byte(10*(d%3)+(d+2)%8), 2)
		if d%11 == 10 {
			long = append(long, 9, 0)
		}
	}
	for _, s := range []struct{ nm, cs uint8 }{{1, 1}, {9, 2}, {16, 16}, {17, 2}, {40, 9}, {48, 16}} {
		f.Add(s.nm-1, s.cs-1, collide)
		f.Add(s.nm-1, s.cs-1, long)
	}
	f.Fuzz(func(t *testing.T, nm, cs uint8, script []byte) {
		p := Params{WordLen: int(nm%48) + 1 + int(cs%16) + 1, ChecksumLen: int(cs%16) + 1}
		s := newTestScheme(t, p)
		ref := swptest.New(testKey(9), p.WordLen, p.ChecksumLen)
		a, b := collidingValues(t, ref, p)
		pool := [][]byte{a, b}
		for v := 0; v < 6; v++ {
			pool = append(pool, katWord(p.WordLen, v))
		}
		type word struct {
			doc         int
			pos         uint64
			plain       []byte
			flip        int // 0: none, 1: a bit of L, 2: a bit of R
			bit         int
			cw, got, pt []byte
		}
		// The script becomes words and ops: i >= 0 queues words[i],
		// newDoc-d positions the codec on document d, endRun runs.
		const endRun, newDoc = -1, -2
		var words []word
		var ops []int
		docs, inDoc := 0, 0
		for i := 0; i+1 < len(script); i += 2 {
			code, arg := script[i]%30, script[i+1]
			v := code % 10
			if v == 9 {
				ops = append(ops, endRun)
				continue
			}
			if v == 8 || docs == 0 || inDoc == 6 {
				if docs == RunDocs+3 {
					break
				}
				ops = append(ops, newDoc-docs)
				docs, inDoc = docs+1, 0
			}
			if v < 8 {
				ops = append(ops, len(words))
				words = append(words, word{doc: docs - 1, pos: uint64(arg), plain: pool[v], flip: int(code / 10), bit: int(arg)})
				inDoc++
			}
		}
		ids := make([][]byte, docs)
		for d := range ids {
			ids[d] = testDoc(fmt.Sprintf("fuzz-%d", d))
		}
		replay := func(c *Codec, queue func(w *word) error, run func()) {
			for _, o := range ops {
				switch {
				case o == endRun:
					run()
				case o < 0:
					if err := c.SetDocument(ids[newDoc-o]); err != nil {
						t.Fatal(err)
					}
				default:
					if err := queue(&words[o]); err != nil {
						t.Fatal(err)
					}
				}
			}
			run()
		}
		enc, dec := s.NewCodec(), s.NewCodec()
		replay(enc, func(w *word) error {
			w.cw = make([]byte, p.WordLen)
			return enc.QueueWord(w.cw, w.pos, w.plain)
		}, enc.EncryptRun)
		replay(dec, func(w *word) error {
			w.got = bytes.Clone(w.cw)
			switch nml := p.streamLen(); w.flip {
			case 1:
				w.got[w.bit%nml] ^= 1 << (w.bit % 8)
			case 2:
				w.got[nml+w.bit%p.ChecksumLen] ^= 1 << (w.bit % 8)
			}
			w.pt = make([]byte, p.WordLen)
			return dec.QueueWord(w.pt, w.pos, w.got)
		}, dec.DecryptRun)
		for i, w := range words {
			want, err := ref.EncryptWord(ids[w.doc], w.pos, w.plain)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.cw, want) {
				t.Fatalf("%+v word %d (document %d, position %d): EncryptRun wrote %x, reference %x", p, i, w.doc, w.pos, w.cw, want)
			}
			if want, err = ref.DecryptWord(ids[w.doc], w.pos, w.got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.pt, want) || (w.flip == 0 && !bytes.Equal(w.pt, w.plain)) {
				t.Fatalf("%+v word %d (document %d, position %d, flip %d): DecryptRun gave %x, reference %x, plaintext %x", p, i, w.doc, w.pos, w.flip, w.pt, want, w.plain)
			}
		}
	})
}
