package swp

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
)

func testKey(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// testDoc is a DocIDLen-byte document identifier holding label.
func testDoc(label string) []byte {
	id := make([]byte, DocIDLen)
	copy(id, label)
	return id
}

func newTestScheme(t *testing.T, p Params) *Scheme {
	t.Helper()
	s, err := New(testKey(9), p)
	if err != nil {
		t.Fatalf("New(%+v): %v", p, err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{WordLen: 8, ChecksumLen: 2}, true},
		{Params{WordLen: 2, ChecksumLen: 1}, true},
		{Params{WordLen: 1, ChecksumLen: 0}, false},
		{Params{WordLen: 8, ChecksumLen: 0}, false},
		{Params{WordLen: 8, ChecksumLen: 8}, false},
		{Params{WordLen: 8, ChecksumLen: 9}, false},
		{Params{WordLen: 0, ChecksumLen: 0}, false},
		{Params{WordLen: 40, ChecksumLen: MaxChecksumLen}, true},
		{Params{WordLen: 40, ChecksumLen: MaxChecksumLen + 1}, false}, // F outputs one AES block
	}
	for _, c := range cases {
		err := c.p.Validate()
		if c.ok && err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c.p, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c.p)
		}
	}
}

func TestFalsePositiveRateFormula(t *testing.T) {
	p := Params{WordLen: 8, ChecksumLen: 1}
	if got := p.FalsePositiveRate(); got != 1.0/256 {
		t.Fatalf("FP rate for m=1: got %v want %v", got, 1.0/256)
	}
	p.ChecksumLen = 2
	if got := p.FalsePositiveRate(); got != 1.0/65536 {
		t.Fatalf("FP rate for m=2: got %v want %v", got, 1.0/65536)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 11, ChecksumLen: 2})
	docID := testDoc("doc-1")
	words := [][]byte{
		[]byte("MontgomeryN"),
		[]byte("HR########D"),
		[]byte("7500######S"),
	}
	cws, err := s.EncryptDocument(docID, words)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.DecryptDocument(docID, cws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if !bytes.Equal(got[i], words[i]) {
			t.Fatalf("word %d: got %q want %q", i, got[i], words[i])
		}
	}
}

func TestSingleWordRoundTrip(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 2})
	w := []byte("word0001")
	cw, err := s.EncryptWord(testDoc("d"), 5, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.DecryptWord(testDoc("d"), 5, cw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w) {
		t.Fatalf("got %q want %q", got, w)
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 10, ChecksumLen: 2})
	f := func(raw [10]byte, docID [DocIDLen]byte, pos uint16) bool {
		cw, err := s.EncryptWord(docID[:], uint64(pos), raw[:])
		if err != nil {
			return false
		}
		pt, err := s.DecryptWord(docID[:], uint64(pos), cw)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, raw[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryGeometryRoundTripsAndMatches sweeps every admissible (n, m) up to
// 48-byte words, then 64 and 100 bytes: a word decrypts to itself, its own
// trapdoor matches it, and another word's trapdoor does not (m >= 4 only,
// where a false positive is a 2^-32 event). The sweep must cross F's block
// boundaries, and E's: Feistel halves of 20, 32 and 50 bytes (n = 40, 64,
// 100) take more than one tag per round function, the last two more than
// two.
func TestEveryGeometryRoundTripsAndMatches(t *testing.T) {
	boundaries := map[int]bool{15: false, 16: false, 17: false, 32: false, 33: false}
	docID := testDoc("geometry")
	lengths := []int{64, 100}
	for n := 2; n <= 48; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		word, other := make([]byte, n), make([]byte, n)
		for i := range word {
			word[i], other[i] = byte(7*i+n), byte(7*i+n)
		}
		other[0] ^= 1
		for m := 1; m <= min(MaxChecksumLen, n-1); m++ {
			p := Params{WordLen: n, ChecksumLen: m}
			if _, tracked := boundaries[p.streamLen()]; tracked {
				boundaries[p.streamLen()] = true
			}
			s := newTestScheme(t, p)
			cw, err := s.EncryptWord(docID, 5, word)
			if err != nil {
				t.Fatalf("%+v: %v", p, err)
			}
			if pt, err := s.DecryptWord(docID, 5, cw); err != nil || !bytes.Equal(pt, word) {
				t.Fatalf("%+v: decrypted %x (%v), want %x", p, pt, err, word)
			}
			td, err := s.NewTrapdoor(word)
			if err != nil {
				t.Fatalf("%+v: %v", p, err)
			}
			if !NewMatcher(p, td).Match(cw) {
				t.Fatalf("%+v: a word's own trapdoor does not match its cipherword", p)
			}
			if m < 4 {
				continue
			}
			if td, err = s.NewTrapdoor(other); err != nil {
				t.Fatalf("%+v: %v", p, err)
			}
			if NewMatcher(p, td).Match(cw) {
				t.Fatalf("%+v: another word's trapdoor matched", p)
			}
		}
	}
	for nm, seen := range boundaries {
		if !seen {
			t.Errorf("sweep never reached stream width %d", nm)
		}
	}
}

func TestSearchFindsAllOccurrences(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 6, ChecksumLen: 2})
	target := []byte("target")
	words := [][]byte{
		[]byte("word01"), target, []byte("word02"), target, []byte("word03"),
	}
	cws, err := s.EncryptDocument(testDoc("doc"), words)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor(target)
	if err != nil {
		t.Fatal(err)
	}
	hits := SearchDocument(s.Params(), cws, td)
	// No false negatives: positions 1 and 3 must be present.
	found := map[int]bool{}
	for _, h := range hits {
		found[h] = true
	}
	if !found[1] || !found[3] {
		t.Fatalf("search missed occurrences: hits=%v", hits)
	}
	// With m=2 false positives are ~2^-16; three non-matching slots
	// should essentially never all fire. Allow any single FP but not a
	// full sweep.
	if len(hits) >= 5 {
		t.Fatalf("search matched every slot: %v", hits)
	}
}

func TestSearchNoFalseNegativesProperty(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 2})
	f := func(raw [8]byte, docID [DocIDLen]byte, filler [8]byte) bool {
		words := [][]byte{filler[:], raw[:], filler[:]}
		cws, err := s.EncryptDocument(docID[:], words)
		if err != nil {
			return false
		}
		td, err := s.NewTrapdoor(raw[:])
		if err != nil {
			return false
		}
		for _, h := range SearchDocument(s.Params(), cws, td) {
			if h == 1 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrapdoorDoesNotMatchOtherWords(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 4})
	words := make([][]byte, 64)
	for i := range words {
		words[i] = []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}
	}
	cws, err := s.EncryptDocument(testDoc("doc"), words)
	if err != nil {
		t.Fatal(err)
	}
	absent := []byte{0xFF, 0xFE, 0xFD, 0xFC, 0xFB, 0xFA, 0xF9, 0xF8}
	td, err := s.NewTrapdoor(absent)
	if err != nil {
		t.Fatal(err)
	}
	if hits := SearchDocument(s.Params(), cws, td); len(hits) != 0 {
		t.Fatalf("trapdoor for absent word matched positions %v (m=4 should make this ~impossible)", hits)
	}
}

func TestFalsePositiveRateRoughlyMatchesTheory(t *testing.T) {
	// m=1: FP rate 1/256 per slot. Probe ~20k slots and check the
	// measured rate is within a factor of 3 of theory.
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 1})
	absent := bytes.Repeat([]byte{0xFF}, 8)
	td, err := s.NewTrapdoor(absent)
	if err != nil {
		t.Fatal(err)
	}
	const docs, perDoc = 300, 64
	hits, slots := 0, 0
	for d := 0; d < docs; d++ {
		words := make([][]byte, perDoc)
		for i := range words {
			words[i] = []byte{byte(d), byte(d >> 8), byte(i), 3, 4, 5, 6, 7}
		}
		cws, err := s.EncryptDocument(testDoc(string([]byte{byte(d), byte(d >> 8)})), words)
		if err != nil {
			t.Fatal(err)
		}
		hits += len(SearchDocument(s.Params(), cws, td))
		slots += perDoc
	}
	rate := float64(hits) / float64(slots)
	theo := 1.0 / 256
	if rate > 3*theo || rate < theo/3 {
		t.Fatalf("measured FP rate %v too far from theoretical %v (%d/%d)", rate, theo, hits, slots)
	}
}

func TestCipherwordsDifferAcrossPositions(t *testing.T) {
	// The same word at different positions must encrypt differently
	// (stream dependence), or equality patterns would leak.
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 2})
	w := []byte("samesame")
	cws, err := s.EncryptDocument(testDoc("doc"), [][]byte{w, w, w})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cws[0], cws[1]) || bytes.Equal(cws[1], cws[2]) {
		t.Fatal("identical words at different positions produced identical cipherwords")
	}
}

func TestCipherwordsDifferAcrossDocuments(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 2})
	w := [][]byte{[]byte("samesame")}
	c1, err := s.EncryptDocument(testDoc("doc-1"), w)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.EncryptDocument(testDoc("doc-2"), w)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1[0], c2[0]) {
		t.Fatal("same word in different documents produced identical cipherwords")
	}
}

func TestTrapdoorMatchesAcrossDocuments(t *testing.T) {
	// One trapdoor must find the word in any document (that is the point
	// of the scheme).
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 2})
	w := []byte("findme00")
	td, err := s.NewTrapdoor(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, docID := range [][]byte{testDoc("a"), testDoc("b"), testDoc("c")} {
		cws, err := s.EncryptDocument(docID, [][]byte{[]byte("other000"), w})
		if err != nil {
			t.Fatal(err)
		}
		hit := false
		for _, h := range SearchDocument(s.Params(), cws, td) {
			if h == 1 {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("trapdoor missed word in document %q", docID)
		}
	}
}

func TestKeySeparation(t *testing.T) {
	p := Params{WordLen: 8, ChecksumLen: 2}
	s1, _ := New(testKey(1), p)
	s2, _ := New(testKey(2), p)
	w := []byte("whatever")
	cws, err := s1.EncryptDocument(testDoc("doc"), [][]byte{w})
	if err != nil {
		t.Fatal(err)
	}
	td, err := s2.NewTrapdoor(w)
	if err != nil {
		t.Fatal(err)
	}
	// A trapdoor under the wrong key must not (except with FP prob)
	// match.
	if hits := SearchDocument(p, cws, td); len(hits) != 0 {
		t.Fatalf("trapdoor under wrong key matched: %v", hits)
	}
	// And decryption under the wrong key must not return the plaintext.
	got, err := s2.DecryptDocument(testDoc("doc"), cws)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got[0], w) {
		t.Fatal("wrong key decrypted to the original plaintext")
	}
}

func TestWordLengthValidation(t *testing.T) {
	s := newTestScheme(t, Params{WordLen: 8, ChecksumLen: 2})
	if _, err := s.EncryptWord(testDoc("d"), 0, []byte("short")); err == nil {
		t.Fatal("EncryptWord accepted a short word")
	}
	if _, err := s.EncryptDocument(testDoc("d"), [][]byte{[]byte("toolongword")}); err == nil {
		t.Fatal("EncryptDocument accepted an over-long word")
	}
	if _, err := s.DecryptWord(testDoc("d"), 0, []byte("bad")); err == nil {
		t.Fatal("DecryptWord accepted a short cipherword")
	}
	if _, err := s.NewTrapdoor([]byte("no")); err == nil {
		t.Fatal("NewTrapdoor accepted a short word")
	}
}

func TestMatchRejectsMalformedInputs(t *testing.T) {
	p := Params{WordLen: 8, ChecksumLen: 2}
	if NewMatcher(p, Trapdoor{X: make([]byte, 8), K: make([]byte, crypto.KeySize)}).Match(make([]byte, 7)) {
		t.Fatal("Match accepted short cipherword")
	}
	if NewMatcher(p, Trapdoor{X: make([]byte, 7), K: make([]byte, crypto.KeySize)}).Match(make([]byte, 8)) {
		t.Fatal("Match accepted short trapdoor X")
	}
	if NewMatcher(p, Trapdoor{X: make([]byte, 8), K: make([]byte, 3)}).Match(make([]byte, 8)) {
		t.Fatal("Match accepted short trapdoor key")
	}
}
