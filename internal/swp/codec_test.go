package swp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
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

// TestCodecWordAllocs: a word costs at most one allocation in either
// direction — the AES key schedule of its k_i, which no scratch can absorb
// because k_i differs per word value — at one-block and CBC-MAC stream
// widths alike, and a word value the codec's memo already holds costs
// none.
func TestCodecWordAllocs(t *testing.T) {
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
		}); allocs > float64(len(words)) {
			t.Errorf("stream width %d: EncryptWordInto allocates %v objects per %d words, want at most one each", nm, allocs, len(words))
		}
		if allocs := testing.AllocsPerRun(200, func() {
			for i := range words {
				_ = c.DecryptWordInto(pt, uint64(i), cw)
			}
		}); allocs > float64(len(words)) {
			t.Errorf("stream width %d: DecryptWordInto allocates %v objects per %d words, want at most one each", nm, allocs, len(words))
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
// to the memoised word.
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
		c.SetDocument(docIDs[1])
		if err := c.DecryptWordInto(pt, 2, tampered); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, want) || bytes.Equal(pt, word) {
			t.Fatalf("stream width %d: tampered word decrypted to %x, memo-free %x, memoised %x", nm, pt, want, word)
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
