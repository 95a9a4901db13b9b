package swp

import (
	"bytes"
	"testing"
)

// The variant tests follow the narrative of the SWP paper: each scheme
// fixes its predecessor's documented flaw, and the final scheme (swp.go)
// is the only one that both hides queries and decrypts.

var variantParams = Params{WordLen: 8, ChecksumLen: 2}

func variantWords() [][]byte {
	return [][]byte{
		[]byte("aaaaaaaa"), []byte("secret00"), []byte("bbbbbbbb"),
	}
}

func TestBasicSchemeSearchWorks(t *testing.T) {
	s, err := NewBasic(testKey(1), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	cws, err := s.EncryptDocument([]byte("doc"), variantWords())
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor([]byte("secret00"))
	if err != nil {
		t.Fatal(err)
	}
	if !BasicMatch(s.Params(), cws[1], td.Word, td.FKey) {
		t.Fatal("basic search missed the word")
	}
	if BasicMatch(s.Params(), cws[0], td.Word, td.FKey) {
		t.Fatal("basic search matched a different word (beyond FP odds)")
	}
}

func TestBasicSchemeLeaksQueryPlaintext(t *testing.T) {
	// Scheme I's first documented flaw: the trapdoor *is* the plaintext.
	s, err := NewBasic(testKey(1), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor([]byte("secret00"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(td.Word, []byte("secret00")) {
		t.Fatal("scheme I trapdoor should carry the plaintext word — that is its documented flaw")
	}
}

func TestBasicSchemeDictionaryAttack(t *testing.T) {
	// Scheme I's second flaw: one search reveals the global key, after
	// which the server can dictionary-test ANY candidate word at any
	// position of any document.
	s, err := NewBasic(testKey(2), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	cws, err := s.EncryptDocument([]byte("doc"), variantWords())
	if err != nil {
		t.Fatal(err)
	}
	// The server observed one innocent query...
	td, err := s.NewTrapdoor([]byte("aaaaaaaa"))
	if err != nil {
		t.Fatal(err)
	}
	// ...and now confirms a word that was never queried.
	if !BasicMatch(s.Params(), cws[1], []byte("secret00"), td.FKey) {
		t.Fatal("dictionary attack failed — scheme I should be this broken")
	}
}

func TestControlledSchemeStopsDictionaryAttack(t *testing.T) {
	s, err := NewControlled(testKey(3), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	cws, err := s.EncryptDocument([]byte("doc"), variantWords())
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor([]byte("aaaaaaaa"))
	if err != nil {
		t.Fatal(err)
	}
	// The authorised search works...
	if !ControlledMatch(s.Params(), cws[0], td) {
		t.Fatal("controlled search missed its word")
	}
	// ...but the revealed key is useless for any other word: the scheme
	// II fix.
	if BasicMatch(s.Params(), cws[1], []byte("secret00"), td.WordKey) {
		t.Fatal("scheme II key authorised a dictionary test for another word")
	}
}

func TestControlledSchemeStillLeaksQuery(t *testing.T) {
	s, err := NewControlled(testKey(3), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor([]byte("secret00"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(td.Word, []byte("secret00")) {
		t.Fatal("scheme II trapdoor should still carry the plaintext — its residual flaw")
	}
}

func TestHiddenSchemeHidesQuery(t *testing.T) {
	s, err := NewHidden(testKey(4), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	cws, err := s.EncryptDocument([]byte("doc"), variantWords())
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor([]byte("secret00"))
	if err != nil {
		t.Fatal(err)
	}
	// The search works...
	if !HiddenMatch(s.Params(), cws[1], td) {
		t.Fatal("hidden search missed its word")
	}
	if HiddenMatch(s.Params(), cws[0], td) {
		t.Fatal("hidden search matched a different word")
	}
	// ...and the token no longer contains the plaintext anywhere.
	if bytes.Contains(td.X, []byte("secret")) || bytes.Contains(td.K, []byte("secret")) {
		t.Fatal("scheme III trapdoor leaks plaintext")
	}
}

func TestHiddenSchemeCannotDecrypt(t *testing.T) {
	// Scheme III's flaw: the client recovers only the stream-masked part
	// of X — never the full pre-encryption, so never the word. This is
	// precisely why the final scheme splits X into ⟨L, R⟩.
	s, err := NewHidden(testKey(5), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	word := []byte("secret00")
	cws, err := s.EncryptDocument([]byte("doc"), [][]byte{word})
	if err != nil {
		t.Fatal(err)
	}
	left, err := s.RecoverStreamPart([]byte("doc"), 0, cws[0])
	if err != nil {
		t.Fatal(err)
	}
	nm := variantParams.WordLen - variantParams.ChecksumLen
	if len(left) != nm {
		t.Fatalf("recovered %d bytes, expected the %d unmasked ones", len(left), nm)
	}
	// Sanity: what it recovered really is the left part of X…
	x, err := s.pre.Encrypt(word)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(left, x[:nm]) {
		t.Fatal("recovered bytes are not the left part of the pre-encryption")
	}
	// …and the left part alone does not invert the PRP: the full X is
	// needed, whose right part stays masked by a key derived from X
	// itself.
	if bytes.Contains(left, []byte("secret")) {
		t.Fatal("partial pre-encryption leaked plaintext")
	}
}

func TestFinalSchemeClosesTheLoop(t *testing.T) {
	// The final scheme both hides queries (like III) and decrypts (unlike
	// III) — the property the ICDE'06 construction depends on.
	s, err := New(testKey(6), variantParams)
	if err != nil {
		t.Fatal(err)
	}
	word := []byte("secret00")
	cws, err := s.EncryptDocument(testDoc("doc"), [][]byte{word})
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor(word)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(td.X, []byte("secret")) {
		t.Fatal("final trapdoor leaks plaintext")
	}
	if !NewMatcher(s.Params(), td).Match(cws[0]) {
		t.Fatal("final search missed its word")
	}
	got, err := s.DecryptDocument(testDoc("doc"), cws)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], word) {
		t.Fatal("final scheme failed to decrypt")
	}
}

func TestVariantParamsValidated(t *testing.T) {
	bad := Params{WordLen: 4, ChecksumLen: 4}
	if _, err := NewBasic(testKey(7), bad); err == nil {
		t.Fatal("basic accepted invalid params")
	}
	if _, err := NewControlled(testKey(7), bad); err == nil {
		t.Fatal("controlled accepted invalid params")
	}
	if _, err := NewHidden(testKey(7), bad); err == nil {
		t.Fatal("hidden accepted invalid params")
	}
}

func TestVariantWordLengthChecks(t *testing.T) {
	b, _ := NewBasic(testKey(8), variantParams)
	if _, err := b.EncryptDocument([]byte("d"), [][]byte{[]byte("short")}); err == nil {
		t.Fatal("basic accepted short word")
	}
	if _, err := b.NewTrapdoor([]byte("x")); err == nil {
		t.Fatal("basic trapdoor accepted short word")
	}
	c, _ := NewControlled(testKey(8), variantParams)
	if _, err := c.EncryptDocument([]byte("d"), [][]byte{[]byte("toolongtoolong")}); err == nil {
		t.Fatal("controlled accepted long word")
	}
	h, _ := NewHidden(testKey(8), variantParams)
	if _, err := h.NewTrapdoor([]byte("x")); err == nil {
		t.Fatal("hidden trapdoor accepted short word")
	}
	if _, err := h.RecoverStreamPart([]byte("d"), 0, []byte("xx")); err == nil {
		t.Fatal("hidden recover accepted short cipherword")
	}
}
