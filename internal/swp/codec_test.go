package swp

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/crypto"
)

// codecFixture is a few documents of distinct words under one scheme.
func codecFixture(t *testing.T, p Params) (s *Scheme, docIDs [][]byte, docs [][][]byte) {
	t.Helper()
	s = newTestScheme(t, p)
	for d := 0; d < 4; d++ {
		// Identifiers of several lengths: a document identifier has none fixed.
		docIDs = append(docIDs, bytes.Repeat([]byte{byte(d + 1)}, 1+7*d))
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
			c.SetDocument(docIDs[d])
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
	c.SetDocument([]byte("d"))
	for name, err := range map[string]error{
		"short word":       c.EncryptWordInto(w, 0, w[:7]),
		"short dst":        c.EncryptWordInto(w[:7], 0, w),
		"long cipherword":  c.DecryptWordInto(w, 0, make([]byte, 9)),
		"short plain dst":  c.DecryptWordInto(w[:7], 0, w),
		"empty cipherword": c.DecryptWordInto(w, 0, nil),
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

// TestCodecKnownAnswers pins a codec's words and a trapdoor, under the
// test scheme's key at a one-block (n = 11) and a CBC-MAC (n = 42) stream
// width, to the bytes the crypto/aes-based instantiation produced before
// crypto.AES256 carried G, f, F and E: EncryptWordInto of katWord(n, pos)
// and DecryptWordInto of katWord(n, pos+10) at positions 0..2 of one
// document, and the trapdoor of katWord(n, 0). CI runs it on both AES256
// paths (the purego step takes crypto/aes).
func TestCodecKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		n        int
		enc, dec [3]string
		x, k     string
	}{
		{
			n:   11,
			enc: [3]string{"2c56834e74c78d39c868d0", "a6200dc986cf76ac139a93", "daccc2903b7c0f7102b5c7"},
			dec: [3]string{"891e63cbd22b9b8e9dcea3", "cd1e0f35fefdfe0feea34c", "626002aaf664beafd797df"},
			x:   "991da4540f32480290aee9",
			k:   "d35c96184d36b88b7f95cb0d2539e84d2234ecdbfcb395dfbc14a53ef685e071",
		},
		{
			n: 42,
			enc: [3]string{
				"033917e10b871e934d107d93db5f4afb558a6a13740c4e760b4c5184546de6cf9075419a7d4d5919c1b9",
				"e5bf4a29992cc3262303b33b2137af47f2d4edd8f737c067f42dee8e9ee91dde71c029e4439e0ce39fb7",
				"03f2e8610423333665427c3bb6036360e677ed75e1f2fce64ab0a92032e584e107169ac20d611c68279a",
			},
			dec: [3]string{
				"c078a52168208527b891cc625b2a1d53be53fad8dbdd164113dd37a3b1290bc2727402fa00fa98fa3cf1",
				"7a75ba5e2f24607a49c54da9c5fdf4ab5b3fccefb562b2a5df9499d96151aa7e4a9d2e1caae344493cd4",
				"ccaad442e8ddc187ddefea4d87330afea7caf89826b5ef3036397e35d1d88888c0d7d25ff26b330bb9f1",
			},
			x: "b67230fb7072dba815bb721a63f00259813cc0e483f3a7869747d6894a0f99b7efca3f0505419251fbdb",
			k: "e1b0ed126dd8e00da7f7b7b872bdc632c0021cded45edcc764f5f00e6082489b",
		},
	} {
		s := newTestScheme(t, Params{WordLen: c.n, ChecksumLen: 2})
		codec := s.NewCodec()
		codec.SetDocument([]byte("kat-document-id"))
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
