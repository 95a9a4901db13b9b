package core

import (
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/swp"
)

// newVarlenPH builds a PH in per-column-width mode.
func newVarlenPH(t *testing.T) *PH {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(key, empSchema(), Options{PerColumnWidth: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVarlenRoundTrip(t *testing.T) {
	p := newVarlenPH(t)
	tab := empTable(t)
	ct, err := p.EncryptTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := p.DecryptTable(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Equal(tab) {
		t.Fatal("variable-width round trip changed the table")
	}
}

func TestVarlenHomomorphicSelect(t *testing.T) {
	p := newVarlenPH(t)
	tab := empTable(t)
	ct, err := p.EncryptTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []relation.Eq{
		{Column: "name", Value: relation.String("Montgomery")},
		{Column: "dept", Value: relation.String("HR")},
		{Column: "salary", Value: relation.Int(7500)},
		{Column: "dept", Value: relation.String("NONE!")},
	} {
		want, err := relation.Select(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := p.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ph.Apply(ct, eq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.DecryptResult(q, res)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("varlen query %s: wrong result", q)
		}
	}
}

func TestVarlenCiphertextSmaller(t *testing.T) {
	fixed := newTestPH(t, Options{})
	varlen := newVarlenPH(t)
	tab := empTable(t)
	ctF, err := fixed.EncryptTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	ctV, err := varlen.EncryptTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	sized := func(ct *ph.EncryptedTable) int {
		n := 0
		for _, tp := range ct.Tuples {
			for _, w := range tp.Words {
				n += len(w)
			}
		}
		return n
	}
	f, v := sized(ctF), sized(ctV)
	if v >= f {
		t.Fatalf("variable-width ciphertext (%d bytes) not smaller than fixed (%d)", v, f)
	}
	// Exact expectation: fixed = 3 columns × 11 bytes; varlen =
	// 11 (name) + 6 (dept) + 7 (salary incl. sign byte).
	if f != tab.Len()*33 || v != tab.Len()*24 {
		t.Fatalf("ciphertext sizes f=%d v=%d, want %d and %d", f, v, tab.Len()*33, tab.Len()*24)
	}
}

func TestVarlenLeaksOnlyColumnIdentity(t *testing.T) {
	// Documented trade-off: cipherword lengths reveal the column, and
	// nothing else. Two tables with different values but the same schema
	// produce identical length multisets.
	p := newVarlenPH(t)
	t1 := relation.NewTable(empSchema())
	t1.MustInsert(relation.String("A"), relation.String("B"), relation.Int(1))
	t2 := relation.NewTable(empSchema())
	t2.MustInsert(relation.String("Montgomery"), relation.String("SALES"), relation.Int(99999))
	ct1, err := p.EncryptTable(t1)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := p.EncryptTable(t2)
	if err != nil {
		t.Fatal(err)
	}
	lengths := func(ct *ph.EncryptedTable) map[int]int {
		m := map[int]int{}
		for _, tp := range ct.Tuples {
			for _, w := range tp.Words {
				m[len(w)]++
			}
		}
		return m
	}
	l1, l2 := lengths(ct1), lengths(ct2)
	if len(l1) != len(l2) {
		t.Fatalf("length profiles differ: %v vs %v", l1, l2)
	}
	for k, v := range l1 {
		if l2[k] != v {
			t.Fatalf("length profiles differ at %d: %v vs %v", k, l1, l2)
		}
	}
}

func TestVarlenNarrowColumnClampsChecksum(t *testing.T) {
	// A width-1 int column yields 3-byte words (sign allowance + id), so a
	// requested m must be clamped to fit; on the wide column it is clamped
	// to F's one-block output instead. Everything still works.
	s := relation.MustSchema("t",
		relation.Column{Name: "flag", Type: relation.TypeInt, Width: 1},
		relation.Column{Name: "note", Type: relation.TypeString, Width: 20},
	)
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{4, 20} {
		p, err := New(key, s, Options{PerColumnWidth: true, ChecksumLen: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range p.Params() {
			if want := min(m, sp.WordLen-1, swp.MaxChecksumLen); sp.ChecksumLen != want {
				t.Fatalf("m=%d: %d-byte words got checksum width %d, want %d", m, sp.WordLen, sp.ChecksumLen, want)
			}
		}
		tab := relation.NewTable(s)
		tab.MustInsert(relation.Int(1), relation.String("hello world"))
		tab.MustInsert(relation.Int(2), relation.String("goodbye"))
		ct, err := p.EncryptTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		q := relation.Eq{Column: "flag", Value: relation.Int(2)}
		eq, err := p.EncryptQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ph.Apply(ct, eq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.DecryptResult(q, res)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 || got.Tuple(0)[1].Str() != "goodbye" {
			t.Fatalf("m=%d: narrow-column select wrong: %v", m, got)
		}
	}
}

func TestMetaCodecRoundTrip(t *testing.T) {
	p := newVarlenPH(t)
	for _, want := range p.Params() {
		// A token of matching length must resolve to exactly these
		// parameters.
		token := make([]byte, want.WordLen+crypto.KeySize)
		_, got, err := decodeQueryToken(p.meta, token)
		if err != nil {
			t.Fatalf("decodeQueryToken for word length %d: %v", want.WordLen, err)
		}
		if got != want {
			t.Fatalf("meta round trip lost %+v (got %+v)", want, got)
		}
	}
}

func TestMetaDecodeErrors(t *testing.T) {
	cases := []struct {
		meta []byte
		want string // substring the error must carry; "" = any error
	}{
		{nil, ""},
		{[]byte{metaVersion}, ""},
		{[]byte{99, 1, 0, 11, 0, 2}, "version 99"},
		// A well-formed table written before F moved from HMAC-SHA256 to
		// AES: same layout, but no trapdoor of this build can match it.
		{[]byte{2, 1, 0, 11, 0, 2}, "re-encrypt"},
		// Likewise one written before E's round functions and f did.
		{[]byte{3, 1, 0, 11, 0, 2}, "re-encrypt"},
		// And one written before the stream became CBC-MAC under one key.
		{[]byte{4, 1, 0, 11, 0, 2}, "re-encrypt"},
		{[]byte{metaVersion, 0}, ""},                                  // zero lengths
		{[]byte{metaVersion, 1, 0, 11}, ""},                           // truncated pair
		{[]byte{metaVersion, 1, 0, 2, 0, 5}, ""},                      // checksum >= wordLen
		{[]byte{metaVersion, 1, 0, 40, 0, 17}, "one AES block"},       // checksum wider than F's output
		{[]byte{metaVersion, 2, 0, 11, 0, 2, 0, 11, 0, 2}, "repeats"}, // duplicate length
	}
	token := make([]byte, 11+crypto.KeySize) // matches the 11-byte pairs above
	for i, c := range cases {
		_, _, err := decodeQueryToken(c.meta, token)
		if err == nil {
			t.Errorf("case %d: malformed meta %v accepted", i, c.meta)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: meta %v refused with %q, want a mention of %q", i, c.meta, err, c.want)
		}
	}
	// The same bytes under the current version are a valid table.
	if _, _, err := decodeQueryToken([]byte{metaVersion, 1, 0, 11, 0, 2}, token); err != nil {
		t.Errorf("current-version meta refused: %v", err)
	}
}

func TestTrapdoorDecodeErrors(t *testing.T) {
	p := newTestPH(t, Options{})
	if _, _, err := decodeQueryToken(p.meta, make([]byte, 10)); err == nil {
		t.Fatal("short token accepted")
	}
	if _, _, err := decodeQueryToken(p.meta, make([]byte, crypto.KeySize+99)); err == nil {
		t.Fatal("token with unknown word length accepted")
	}
}

func TestCrossModeCiphertextRejected(t *testing.T) {
	// A fixed-mode instance cannot decrypt varlen ciphertext (different
	// keys and geometry) — it must error, not return garbage.
	fixed := newTestPH(t, Options{})
	varlen := newVarlenPH(t)
	ct, err := varlen.EncryptTable(empTable(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.DecryptTable(ct); err == nil {
		t.Fatal("fixed-mode instance decrypted varlen ciphertext without error")
	}
}
