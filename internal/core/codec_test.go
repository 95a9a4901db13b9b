package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/swp"
	"repro/internal/workload"
)

// answerFixture is a PH under a fixed key, the employee table and the
// server's answer to σ_dept:"HR" over it (Montgomery and Grace, in
// ciphertext order).
type answerFixture struct {
	p      *PH
	q      relation.Eq
	answer []ph.EncryptedTuple
	want   *relation.Table // the answer decrypted
	other  ph.EncryptedTuple
}

func newAnswerFixture(t testing.TB) *answerFixture {
	t.Helper()
	var key crypto.Key
	for i := range key {
		key[i] = byte(3 * i)
	}
	p, err := New(key, empSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := relation.NewTable(empSchema())
	tab.MustInsert(relation.String("Montgomery"), relation.String("HR"), relation.Int(7500))
	tab.MustInsert(relation.String("Ada"), relation.String("IT"), relation.Int(9100))
	tab.MustInsert(relation.String("Grace"), relation.String("HR"), relation.Int(-88))
	ct, err := p.EncryptTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	fix := &answerFixture{p: p, q: relation.Eq{Column: "dept", Value: relation.String("HR")}}
	eq, err := p.EncryptQuery(fix.q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateSerial(ct, eq)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("fixture answer has %d tuples, want 2", len(res.Tuples))
	}
	fix.answer = res.Tuples
	if fix.want, err = p.DecryptResult(fix.q, res); err != nil {
		t.Fatal(err)
	}
	for i, pos := 0, 0; i < len(ct.Tuples); i++ {
		if pos < len(res.Positions) && res.Positions[pos] == i {
			pos++
			continue
		}
		fix.other = ct.Tuples[i] // Ada: not in the answer
	}
	return fix
}

// forge encrypts arbitrary 11-byte words as one document, the way only a
// key holder can: what a hostile server cannot do, and what the decoder
// must still survive.
func (fix *answerFixture) forge(t testing.TB, words ...string) ph.EncryptedTuple {
	t.Helper()
	etp := ph.EncryptedTuple{ID: bytes.Repeat([]byte{0xd0}, docIDLen)}
	c := fix.p.schemes[11].NewCodec()
	c.SetDocument(etp.ID)
	for pos, w := range words {
		cw := make([]byte, len(w))
		if err := c.EncryptWordInto(cw, uint64(pos), []byte(w)); err != nil {
			t.Fatal(err)
		}
		etp.Words = append(etp.Words, cw)
	}
	return etp
}

// hostileTuple is one row of the decoder's robustness table.
type hostileTuple struct {
	name    string
	tuple   ph.EncryptedTuple
	wantErr string // substring of the error; "" = an error or a dropped tuple
}

func (fix *answerFixture) hostileTuples(t testing.TB) []hostileTuple {
	good := fix.answer[0]
	junk := func(n, salt int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(salt + 37*i)
		}
		return b
	}
	return []hostileTuple{
		{"too few words", ph.EncryptedTuple{ID: good.ID, Words: good.Words[:2]}, "document has 2 words"},
		{"too many words", ph.EncryptedTuple{ID: good.ID, Words: append(good.Words[:3:3], good.Words[0])}, "document has 4 words"},
		{"the same column twice", fix.forge(t, "Eve#######N", "HR########D", "IT########D"), `column "dept" twice`},
		{"a word of a length no scheme has", ph.EncryptedTuple{ID: good.ID, Words: [][]byte{junk(12, 1), junk(12, 2), junk(12, 3)}}, "no scheme for word length 12"},
		{"an empty word", ph.EncryptedTuple{ID: good.ID, Words: [][]byte{good.Words[0], nil, good.Words[2]}}, "no scheme for word length 0"},
		{"an unknown attribute id", fix.forge(t, "Eve#######N", "HR########D", "7500######Z"), "unknown attribute identifier"},
		{"a non-numeric value in an int column", fix.forge(t, "Eve#######N", "HR########D", "75x0######S"), `int column "salary" holds "75x0"`},
		{"an int wider than its column", fix.forge(t, "Eve#######N", "HR########D", "1234567890S"), "overflows column"},
		{"an ID of another length", ph.EncryptedTuple{ID: good.ID[:5], Words: good.Words}, ""},
		{"no ID", ph.EncryptedTuple{Words: good.Words}, ""},
		{"random cipherwords", ph.EncryptedTuple{ID: good.ID, Words: [][]byte{junk(11, 4), junk(11, 5), junk(11, 6)}}, ""},
	}
}

// checkHostile decrypts the fixture's answer with one hostile tuple in the
// middle: the outcome is an error naming tuple 1 and no table, or the
// honest answer with the hostile tuple filtered out — never a panic, a
// partially filled table or a tuple that fails the predicate.
func (fix *answerFixture) checkHostile(t *testing.T, h ph.EncryptedTuple, wantErr string) {
	t.Helper()
	res := &ph.Result{Tuples: []ph.EncryptedTuple{fix.answer[0], h, fix.answer[1]}}
	got, err := fix.p.DecryptResult(fix.q, res)
	if err != nil {
		if got != nil {
			t.Errorf("an error (%v) came with a table of %d tuples", err, got.Len())
		}
		if !strings.Contains(err.Error(), "tuple 1") || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("error %q does not name tuple 1 and %q", err, wantErr)
		}
		return
	}
	if wantErr != "" {
		t.Fatalf("accepted; want an error mentioning %q", wantErr)
	}
	if got.Len() == 3 { // the hostile tuple decrypted to an HR employee: fine, but then all three must be
		for i := 0; i < got.Len(); i++ {
			if ok, err := fix.q.Eval(got.Schema(), got.Tuple(i)); err != nil || !ok {
				t.Fatalf("tuple %d of the result, %v, fails the predicate (%v)", i, got.Tuple(i), err)
			}
		}
		return
	}
	if !sameTuples(got, fix.want) {
		t.Fatalf("got\n%v, want the honest answer\n%v", got, fix.want)
	}
}

// sameTuples is Table.Equal with the order of tuples mattering too.
func sameTuples(a, b *relation.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Tuple(i).Equal(b.Tuple(i)) {
			return false
		}
	}
	return true
}

func TestDecryptResultHostileAnswers(t *testing.T) {
	fix := newAnswerFixture(t)
	for _, h := range fix.hostileTuples(t) {
		t.Run(h.name, func(t *testing.T) {
			fix.checkHostile(t, h.tuple, h.wantErr)
			if h.wantErr == "" {
				return
			}
			// The error is about this tuple alone: the same whether the
			// scratch it was parsed into is fresh or holds a good tuple.
			_, first := fix.p.DecryptResult(fix.q, &ph.Result{Tuples: []ph.EncryptedTuple{h.tuple}})
			_, second := fix.p.DecryptResult(fix.q, &ph.Result{Tuples: []ph.EncryptedTuple{fix.answer[0], h.tuple}})
			if first == nil || second == nil || strings.Replace(second.Error(), "tuple 1", "tuple 0", 1) != first.Error() {
				t.Errorf("alone: %v\nafter a good tuple: %v", first, second)
			}
			// DecryptTable runs the same decoder.
			if got, err := fix.p.DecryptTable(&ph.EncryptedTable{SchemeID: SchemeID, Tuples: []ph.EncryptedTuple{fix.answer[0], h.tuple}}); err == nil || got != nil || !strings.Contains(err.Error(), "tuple 1") {
				t.Errorf("DecryptTable returned (%v, %v), want no table and an error naming tuple 1", got, err)
			}
		})
	}
}

// TestDecryptResultDropsFalsePositives: a tuple the server returned that
// does not satisfy the predicate — which is all a checksum false positive
// is to the client — decrypts fine and is filtered out.
func TestDecryptResultDropsFalsePositives(t *testing.T) {
	fix := newAnswerFixture(t)
	res := &ph.Result{Tuples: []ph.EncryptedTuple{fix.other, fix.answer[0], fix.other, fix.answer[1], fix.other}}
	got, err := fix.p.DecryptResult(fix.q, res)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(got, fix.want) {
		t.Fatalf("got\n%v, want\n%v", got, fix.want)
	}
}

// TestDecryptOrderIndependent: every tuple of a table decrypts to the same
// value alone, after its predecessor and after its successor — the scratch
// one call reuses from tuple to tuple carries nothing over. Both layouts,
// so a per-length codec is repositioned between words of other lengths.
func TestDecryptOrderIndependent(t *testing.T) {
	for _, perCol := range []bool{false, true} {
		p := newTestPH(t, Options{PerColumnWidth: perCol})
		ct, err := p.EncryptTable(empTable(t))
		if err != nil {
			t.Fatal(err)
		}
		n := len(ct.Tuples)
		alone := relation.NewTable(empSchema())
		for _, etp := range ct.Tuples {
			one, err := p.DecryptTable(&ph.EncryptedTable{SchemeID: SchemeID, Tuples: []ph.EncryptedTuple{etp}})
			if err != nil {
				t.Fatal(err)
			}
			alone.MustInsert(one.Tuple(0)...)
		}
		reversed := &ph.EncryptedTable{SchemeID: SchemeID}
		for i := n - 1; i >= 0; i-- {
			reversed.Tuples = append(reversed.Tuples, ct.Tuples[i])
		}
		fwd, err := p.DecryptTable(ct)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := p.DecryptTable(reversed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !fwd.Tuple(i).Equal(alone.Tuple(i)) || !rev.Tuple(n-1-i).Equal(alone.Tuple(i)) {
				t.Fatalf("perColumn=%v tuple %d: alone %v, in order %v, in reverse order %v",
					perCol, i, alone.Tuple(i), fwd.Tuple(i), rev.Tuple(n-1-i))
			}
		}
	}
}

// FuzzDecryptResult feeds the decoder one arbitrary tuple between two good
// ones: id, and words cut from one byte string every wordLen bytes. The
// seeds are the rows of TestDecryptResultHostileAnswers.
func FuzzDecryptResult(f *testing.F) {
	fix := newAnswerFixture(f)
	for _, h := range fix.hostileTuples(f) {
		wordLen := 11
		if len(h.tuple.Words[0]) == 12 {
			wordLen = 12
		}
		f.Add(h.tuple.ID, bytes.Join(h.tuple.Words, nil), uint8(wordLen))
	}
	f.Fuzz(func(t *testing.T, id, words []byte, wordLen uint8) {
		h := ph.EncryptedTuple{ID: id}
		for n := int(wordLen); n > 0 && len(words) > 0; {
			n = min(n, len(words))
			h.Words = append(h.Words, words[:n])
			words = words[n:]
		}
		fix.checkHostile(t, h, "")
	})
}

// TestPHConcurrentUse drives one PH from 8 goroutines mixing EncryptQuery,
// EncryptTable (4 tuples) and DecryptResult (100 tuples); every result
// must equal the serial one, and EncryptTable's ciphertexts must decrypt
// under a fresh PH of the same key too. Since no mutex serialises E, f
// and G, each call's codecs memoise word keys, and calls take their codecs
// from one idle list the PH keeps and hand them back, what this proves under
// -race is that each call's state — memo included — is its own while it
// runs, and that a codec another call used answers as a fresh one.
func TestPHConcurrentUse(t *testing.T) {
	tab, err := workload.Employees(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	var key crypto.Key
	p, err := New(key, tab.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := p.EncryptTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	// The widest answer is the most frequent department's.
	q := relation.Eq{Column: "dept", Value: relation.String(workload.Departments[0])}
	wantToken, err := p.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateSerial(ct, wantToken)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) < 100 {
		t.Fatalf("answer has %d tuples, want at least 100", len(res.Tuples))
	}
	res.Tuples = res.Tuples[:100]
	wantAnswer, err := p.DecryptResult(q, res)
	if err != nil {
		t.Fatal(err)
	}
	four := relation.NewTable(tab.Schema())
	for i := 0; i < 4; i++ {
		four.MustInsert(tab.Tuple(i)...)
	}
	// A PH that never saw the answer, so nothing any codec memoised
	// while encrypting can be what decrypts its ciphertexts.
	fresh, err := New(key, tab.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := func() error {
				for rep := 0; rep < 12; rep++ {
					switch (g + rep) % 3 {
					case 0:
						token, err := p.EncryptQuery(q)
						if err != nil {
							return err
						}
						if !bytes.Equal(token.Token, wantToken.Token) {
							return fmt.Errorf("EncryptQuery gave %x, serially %x", token.Token, wantToken.Token)
						}
					case 1:
						enc, err := p.EncryptTable(four)
						if err != nil {
							return err
						}
						for _, d := range []*PH{p, fresh} {
							dec, err := d.DecryptTable(enc)
							if err != nil {
								return err
							}
							if !dec.Equal(four) {
								return fmt.Errorf("EncryptTable round trip gave\n%v, want\n%v", dec, four)
							}
						}
					case 2:
						got, err := p.DecryptResult(q, res)
						if err != nil {
							return err
						}
						if !sameTuples(got, wantAnswer) {
							return fmt.Errorf("DecryptResult differs from the serial answer")
						}
					}
				}
				return nil
			}(); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
}

// keyAllocs is what one AES-256 key expansion allocates on the path this
// process runs: nothing on the AES-NI kernel, which expands in place, and
// the crypto/aes cipher elsewhere (FIPS 140-3 mode, purego, other
// architectures).
func keyAllocs() float64 {
	var f crypto.BlockPRF
	return testing.AllocsPerRun(10, func() { f.Rekey(crypto.Key{}) })
}

// TestClientCodecAllocs gates what a tuple costs the client in either
// direction on the employee table: its output — values, or document ID
// and cipherwords — plus on the crypto/aes path the cipher of each key SWP
// expands (the k_i of each word value the codec's memo does not hold; the
// stream key is the scheme's, expanded once). The AES-NI path expands keys
// in place, and no path allocates scratch per word.
func TestClientCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves allocation counts")
	}
	perKey := keyAllocs()
	tab, err := workload.Employees(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var key crypto.Key
	p, err := New(key, tab.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ct *ph.EncryptedTable
	perTuple := testing.AllocsPerRun(3, func() {
		if ct, err = p.EncryptTable(tab); err != nil {
			t.Fatal(err)
		}
	}) / float64(tab.Len())
	t.Logf("EncryptTable: %.2f allocations per tuple (%v per key expansion)", perTuple, perKey)
	// Nothing per tuple: every word, the salary's digits included, is
	// written in place into the codec's scratch. What is left is per run
	// or per call: a run of swp.RunDocs tuples cuts its document IDs and
	// cipherwords from one slab and its word lists from another, and draws
	// its document IDs and word permutations in one crypto/rand read into
	// the codec's scratch; a call allocates the table, its tuple list and
	// its tuple order. On crypto/aes up to three word keys (names are
	// unique).
	if limit := 0.2 + 3*perKey; perTuple > limit {
		t.Errorf("EncryptTable allocates %.2f objects per tuple, want at most %v", perTuple, limit)
	}

	q := relation.Eq{Column: "dept", Value: relation.String(workload.Departments[0])}
	eq, err := p.EncryptQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateSerial(ct, eq)
	if err != nil {
		t.Fatal(err)
	}
	var got *relation.Table
	perCall := testing.AllocsPerRun(10, func() {
		if got, err = p.DecryptResult(q, res); err != nil {
			t.Fatal(err)
		}
	})
	if got.Len() < 100 {
		t.Fatalf("answer has %d tuples, want at least 100", got.Len())
	}
	perTuple = perCall / float64(got.Len())
	t.Logf("DecryptResult: %.2f allocations per returned tuple", perTuple)
	// Nothing per tuple: what is left is one string per run of
	// swp.RunDocs tuples, which every string value of the run shares, and
	// per call the slab of values, the table and its tuple list. On
	// crypto/aes the name's key and, unless the memo holds them, the
	// salary's and the department's.
	if limit := 0.2 + 3*perKey; perTuple > limit {
		t.Errorf("DecryptResult allocates %.2f objects per returned tuple, want at most %v", perTuple, limit)
	}
}

// TestDecryptBandAllocs gates the hot read's answer shape — one salary,
// seven departments, unique names — where a tuple allocates nothing of
// its own: what is left is the run's string, one per swp.RunDocs tuples,
// whose substrings its string values are, and per answer the slab its
// values sit in (which the table adopts without a copy), the table and
// its tuple list, at most 0.2 objects a tuple at 100 tuples, plus on the
// crypto/aes path the cipher of its name's k_i and of the values a memo
// collision evicted. A one-tuple answer, where the memo saves nothing,
// costs exactly those four objects and, on crypto/aes, three ciphers: the
// pooled codec it runs on is not rebuilt.
func TestDecryptBandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves allocation counts")
	}
	perKey := keyAllocs()
	var key crypto.Key
	p, err := New(key, workload.EmployeeSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := p.EncryptTable(bandTable(t, 100, 7500))
	if err != nil {
		t.Fatal(err)
	}
	q := relation.Eq{Column: "salary", Value: relation.Int(7500)}
	for _, c := range []struct {
		tuples   int
		perTuple float64
	}{{100, 0.2 + 2*perKey}, {1, 4 + 3*perKey}} {
		res := &ph.Result{Tuples: ct.Tuples[:c.tuples]}
		var got *relation.Table
		perCall := testing.AllocsPerRun(20, func() {
			if got, err = p.DecryptResult(q, res); err != nil {
				t.Fatal(err)
			}
		})
		if got.Len() != c.tuples {
			t.Fatalf("answer of %d tuples decrypted to %d", c.tuples, got.Len())
		}
		t.Logf("%d-tuple band answer: %.2f allocations per tuple (%v per key expansion)", c.tuples, perCall/float64(c.tuples), perKey)
		if perCall/float64(c.tuples) > c.perTuple {
			t.Errorf("a %d-tuple band answer allocates %.2f objects per tuple, want at most %v", c.tuples, perCall/float64(c.tuples), c.perTuple)
		}
	}
}

// TestDecryptResultAllocsFlat: a band answer's allocations do not grow
// with the answer. A 1,000-tuple answer may allocate one string more than
// a 10-tuple one per run of swp.RunDocs tuples, ⌈1000/RunDocs⌉ in all,
// and on the crypto/aes path the ciphers of its 990 extra names' keys and
// of the values a memo collision evicted, 2·perKey a tuple; nothing else.
func TestDecryptResultAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves allocation counts")
	}
	perKey := keyAllocs()
	var key crypto.Key
	p, err := New(key, workload.EmployeeSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const small, large = 10, 1000
	ct, err := p.EncryptTable(bandTable(t, large, 7500))
	if err != nil {
		t.Fatal(err)
	}
	q := relation.Eq{Column: "salary", Value: relation.Int(7500)}
	allocs := func(n int) float64 {
		res := &ph.Result{Tuples: ct.Tuples[:n]}
		var got *relation.Table
		perCall := testing.AllocsPerRun(10, func() {
			if got, err = p.DecryptResult(q, res); err != nil {
				t.Fatal(err)
			}
		})
		if got.Len() != n {
			t.Fatalf("answer of %d tuples decrypted to %d", n, got.Len())
		}
		return perCall
	}
	a, b := allocs(small), allocs(large)
	limit := a + float64((large+swp.RunDocs-1)/swp.RunDocs) + (large-small)*2*perKey
	t.Logf("%d tuples: %v allocations, %d tuples: %v (limit %v, %v per key expansion)", small, a, large, b, limit, perKey)
	if b > limit {
		t.Errorf("a %d-tuple answer allocates %v objects, a %d-tuple one %v: want at most %v", large, b, small, a, limit)
	}
}

// lastWord decrypts the last word of a tuple on its own and parses it.
func lastWord(t *testing.T, p *PH, etp ph.EncryptedTuple) (int, relation.Value) {
	t.Helper()
	pos := len(etp.Words) - 1
	cw := etp.Words[pos]
	c := p.schemes[len(cw)].NewCodec()
	w := make([]byte, len(cw))
	if err := c.SetDocument(etp.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.DecryptWordInto(w, uint64(pos), cw); err != nil {
		t.Fatal(err)
	}
	col, v, err := p.layout.parseWord(string(w))
	if err != nil {
		t.Fatal(err)
	}
	return col, v
}

// TestDecryptedValuesOutliveTheCodec: the values a call returns are the
// caller's, not views of the codec's scratch. Tables decrypted from
// answer A — by DecryptTable and by DecryptResult — are kept while the
// same PH decrypts answers B and C, whose runs overwrite the pooled
// codec's plaintext buffer slot for slot, and a collection runs; A's
// tables must still hold A's plaintext. Both layouts, answers of more
// than two runs, empty strings, and names filling their column; A is
// ordered so that every run of it ends in such a name, the last bytes
// the run's string holds before its final identifier.
func TestDecryptedValuesOutliveTheCodec(t *testing.T) {
	for _, perCol := range []bool{false, true} {
		p := newTestPH(t, Options{PerColumnWidth: perCol})
		depts := []string{"", "HR", "SALES", "R&D"}
		var plain []*relation.Table
		var cts []*ph.EncryptedTable
		for k := range 3 {
			tab := relation.NewTable(empSchema())
			for i := range 2*swp.RunDocs + 5 {
				name := fmt.Sprintf("%c%09d", 'a'+k, i) // 10 bytes: the column's width
				if i%5 == 0 {
					name = ""
				}
				tab.MustInsert(relation.String(name), relation.String(depts[(i+k)%len(depts)]), relation.Int(int64(100*k+i)))
			}
			ct, err := p.EncryptTable(tab)
			if err != nil {
				t.Fatal(err)
			}
			plain, cts = append(plain, tab), append(cts, ct)
		}
		var fit, rest []ph.EncryptedTuple
		for _, etp := range cts[0].Tuples {
			if col, v := lastWord(t, p, etp); col == 0 && len(v.Str()) == 10 {
				fit = append(fit, etp)
			} else {
				rest = append(rest, etp)
			}
		}
		n := len(cts[0].Tuples)
		cts[0].Tuples = cts[0].Tuples[:0]
		for i := range n {
			if end := (i+1)%swp.RunDocs == 0 || i == n-1; end && len(fit) == 0 {
				t.Fatalf("perColumn=%v: no tuple left ending in a full name for the end of run %d", perCol, i/swp.RunDocs)
			} else if end || len(rest) == 0 {
				cts[0].Tuples, fit = append(cts[0].Tuples, fit[0]), fit[1:]
			} else {
				cts[0].Tuples, rest = append(cts[0].Tuples, rest[0]), rest[1:]
			}
		}
		q := relation.Eq{Column: "dept", Value: relation.String("")}
		want, err := relation.Select(plain[0], q)
		if err != nil {
			t.Fatal(err)
		}
		aTable, err := p.DecryptTable(cts[0])
		if err != nil {
			t.Fatal(err)
		}
		aAnswer, err := p.DecryptResult(q, &ph.Result{Tuples: cts[0].Tuples})
		if err != nil {
			t.Fatal(err)
		}
		for _, ct := range cts[1:] {
			if _, err := p.DecryptTable(ct); err != nil {
				t.Fatal(err)
			}
			if _, err := p.DecryptResult(q, &ph.Result{Tuples: ct.Tuples}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		if !aTable.Equal(plain[0]) {
			t.Errorf("perColumn=%v: DecryptTable's values changed under later calls:\n%v\nwant\n%v", perCol, aTable, plain[0])
		}
		if !aAnswer.Equal(want) {
			t.Errorf("perColumn=%v: DecryptResult's values changed under later calls:\n%v\nwant\n%v", perCol, aAnswer, want)
		}
	}
}

// TestShortAnswersAllocateNoMemo: the memo is lazy — a codec allocates it
// when it meets a second document — so a call that decrypts an empty or
// a one-tuple answer on a tuple codec of its own allocates none, in
// either layout, and a two-tuple answer does.
func TestShortAnswersAllocateNoMemo(t *testing.T) {
	for _, perCol := range []bool{false, true} {
		var key crypto.Key
		p, err := New(key, workload.EmployeeSchema(), Options{PerColumnWidth: perCol})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := p.EncryptTable(bandTable(t, 2, 7500))
		if err != nil {
			t.Fatal(err)
		}
		q := relation.Eq{Column: "salary", Value: relation.Int(7500)}
		for k := 0; k <= 2; k++ {
			tc := p.newTupleCodec()
			if _, err := tc.decrypt(ct.Tuples[:k], &q, "result tuple"); err != nil {
				t.Fatal(err)
			}
			for n, c := range tc.codecs {
				if c == nil {
					continue
				}
				if memo := !reflect.ValueOf(c).Elem().FieldByName("memo").IsNil(); memo != (k == 2) {
					t.Errorf("perColumn=%v, %d-tuple answer: the codec for %d-byte words has a memo: %v", perCol, k, n, memo)
				}
			}
		}
	}
}
