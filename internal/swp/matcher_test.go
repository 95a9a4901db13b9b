package swp

import (
	"bytes"
	"crypto/aes"
	"crypto/hmac"
	"crypto/subtle"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/crypto"
	"repro/internal/swp/swptest"
)

func matcherFixture(t testing.TB, p Params) (*Scheme, [][]byte, Trapdoor) {
	t.Helper()
	var key crypto.Key
	for i := range key {
		key[i] = byte(i * 7)
	}
	s, err := New(key, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	words := make([][]byte, 256)
	for i := range words {
		w := make([]byte, p.WordLen)
		for j := range w {
			w[j] = byte(rng.Intn(200))
		}
		words[i] = w
	}
	// Plant a known word at a few positions.
	needle := bytes.Repeat([]byte{0xAB}, p.WordLen)
	for _, pos := range []int{3, 77, 200} {
		words[pos] = needle
	}
	cws, err := s.EncryptDocument(testDoc("doc"), words)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.NewTrapdoor(needle)
	if err != nil {
		t.Fatal(err)
	}
	return s, cws, td
}

func TestMatcherAgreesWithMatch(t *testing.T) {
	p := Params{WordLen: 16, ChecksumLen: 2}
	s, cws, td := matcherFixture(t, p)
	m := NewMatcher(s.Params(), td)
	for i, cw := range cws {
		if m.Match(cw) != NewMatcher(s.Params(), td).Match(cw) {
			t.Fatalf("a reused and a fresh Matcher disagree at position %d", i)
		}
	}
	hits := m.Search(cws, nil)
	want := SearchDocument(s.Params(), cws, td)
	if len(hits) != len(want) {
		t.Fatalf("Search found %v, SearchDocument %v", hits, want)
	}
	for i := range hits {
		if hits[i] != want[i] {
			t.Fatalf("Search found %v, SearchDocument %v", hits, want)
		}
	}
	if len(hits) < 3 {
		t.Fatalf("planted word found only at %v, want ≥ 3 positions", hits)
	}
}

func TestMatcherRejectsBadGeometry(t *testing.T) {
	p := Params{WordLen: 16, ChecksumLen: 2}
	_, cws, td := matcherFixture(t, p)

	// Wrong cipherword length.
	if NewMatcher(p, td).Match(cws[0][:10]) {
		t.Fatal("matched a short cipherword")
	}
	// Truncated trapdoor X.
	if NewMatcher(p, Trapdoor{X: td.X[:10], K: td.K}).Match(cws[3]) {
		t.Fatal("matched with a short trapdoor X")
	}
	// Truncated key.
	if NewMatcher(p, Trapdoor{X: td.X, K: td.K[:16]}).Match(cws[3]) {
		t.Fatal("matched with a short trapdoor key")
	}
	// Invalid parameters.
	if NewMatcher(Params{WordLen: 1, ChecksumLen: 1}, td).Match(cws[3]) {
		t.Fatal("matched under invalid parameters")
	}
	// An invalid Matcher must clone safely and stay invalid.
	c := NewMatcher(p, Trapdoor{}).Clone()
	if c.Match(cws[3]) {
		t.Fatal("clone of invalid matcher matched")
	}
}

// TestMatcherCloneConcurrent scans with clones that share one expanded AES
// key, on a one-block and on a CBC-MAC stream width. Run under -race.
func TestMatcherCloneConcurrent(t *testing.T) {
	for _, p := range []Params{{WordLen: 12, ChecksumLen: 3}, {WordLen: 42, ChecksumLen: 2}} {
		_, cws, td := matcherFixture(t, p)
		base := NewMatcher(p, td)
		want := base.Search(cws, nil)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := base.Clone()
				for rep := 0; rep < 20; rep++ {
					if got := m.Search(cws, nil); !slices.Equal(got, want) {
						t.Errorf("%+v: concurrent clone found %v, want %v", p, got, want)
						return
					}
				}
			}()
		}
		// The base keeps scanning while its clones do.
		if got := base.Search(cws, nil); !slices.Equal(got, want) {
			t.Errorf("%+v: base found %v beside its clones, want %v", p, got, want)
		}
		wg.Wait()
	}
}

// benchStreamWidths are the stream widths n−m BenchmarkMatch records and
// TestMatchZeroAllocs gates: 9 (the emp table's) and 16 take one AES block,
// 17 two, 40 three.
var benchStreamWidths = []int{9, 16, 17, 40}

func TestMatchZeroAllocs(t *testing.T) {
	for _, nm := range benchStreamWidths {
		p := Params{WordLen: nm + 2, ChecksumLen: 2}
		_, cws, td := matcherFixture(t, p)
		base := NewMatcher(p, td)
		for name, m := range map[string]*Matcher{"base": base, "clone": base.Clone()} {
			m.Match(cws[0]) // warm up
			allocs := testing.AllocsPerRun(500, func() {
				for _, cw := range cws[:32] {
					m.Match(cw)
				}
			})
			if allocs != 0 {
				t.Fatalf("stream width %d: %s Matcher.Match allocates %v objects per 32-word scan, want 0", nm, name, allocs)
			}
			hits := make([]int, 0, len(cws))
			allocs = testing.AllocsPerRun(500, func() {
				hits = m.MatchRun(len(cws)/3, func(i int) [][]byte { return cws[3*i : 3*i+3] }, hits[:0])
			})
			if allocs != 0 {
				t.Fatalf("stream width %d: %s Matcher.MatchRun allocates %v objects per %d-tuple run, want 0", nm, name, allocs, len(cws)/3)
			}
		}
	}
}

// TestMatcherSetupAllocs holds a scan's per-trapdoor setup to its budget
// at every stream width: NewMatcher is the Matcher and the kernel, which
// holds the key schedule (plus crypto/aes's cipher where AES256 falls
// back to it) beside the run's blocks, owners and words, not in
// allocations of their own, and Clone is the same less the cipher.
func TestMatcherSetupAllocs(t *testing.T) {
	const newMatcherAllocs, cloneAllocs = 4, 3
	for _, nm := range benchStreamWidths {
		p := Params{WordLen: nm + 2, ChecksumLen: 2}
		_, _, td := matcherFixture(t, p)
		base := NewMatcher(p, td)
		if got := testing.AllocsPerRun(200, func() { NewMatcher(p, td) }); got > newMatcherAllocs {
			t.Errorf("stream width %d: NewMatcher allocates %v objects, want at most %d", nm, got, newMatcherAllocs)
		}
		if got := testing.AllocsPerRun(200, func() { base.Clone() }); got > cloneAllocs {
			t.Errorf("stream width %d: Clone allocates %v objects, want at most %d", nm, got, cloneAllocs)
		}
	}
}

// refChecksum is F straight from crypto/aes: CBC-MAC under key over the
// stream chunk s zero-padded to whole blocks, truncated to m bytes — for a
// chunk of at most one block, AES_k(pad(s))[:m].
func refChecksum(t *testing.T, key, s []byte, m int) []byte {
	t.Helper()
	b, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	padded := make([]byte, (len(s)+15)/16*16)
	copy(padded, s)
	state := make([]byte, aes.BlockSize)
	for ; len(padded) > 0; padded = padded[aes.BlockSize:] {
		subtle.XORBytes(state, state, padded)
		b.Encrypt(state, state)
	}
	return state[:m]
}

// refMatch is the match test by definition: a word of the trapdoor's
// length matches iff C ⊕ X = ⟨s, F_k(s)⟩.
func refMatch(t *testing.T, p Params, td Trapdoor, w []byte) bool {
	if len(w) != p.WordLen {
		return false
	}
	c := make([]byte, len(w))
	subtle.XORBytes(c, w, td.X)
	nm := p.streamLen()
	return hmac.Equal(refChecksum(t, td.K, c[:nm], p.ChecksumLen), c[nm:])
}

// TestMatchKernelDifferential holds the kernel — one AES block for every
// stream width 1..16, two at 17 and three at 40 — to refMatch, at every
// checksum width m: genuine words match, a flip of any one checksum byte
// never does, random words agree with the reference, words of another
// length never match, and MatchRun on one document of 0..9 mixed-length
// words reports it exactly when any word matches.
func TestMatchKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	widths := []int{17, 40}
	for nm := 1; nm <= crypto.BlockPRFSize; nm++ {
		widths = append(widths, nm)
	}
	for _, nm := range widths {
		for cs := 1; cs <= MaxChecksumLen; cs++ {
			p := Params{WordLen: nm + cs, ChecksumLen: cs}
			td := Trapdoor{X: randBytes(p.WordLen), K: randBytes(crypto.KeySize)}
			m := NewMatcher(p, td)
			genuine := func() []byte {
				s := randBytes(nm)
				w := append(s, refChecksum(t, td.K, s, cs)...)
				subtle.XORBytes(w, w, td.X)
				return w
			}
			var hits, misses [][]byte
			for i := 0; i < 4; i++ {
				w := genuine()
				if !m.Match(w) || !refMatch(t, p, td, w) {
					t.Fatalf("%+v: a genuine word does not match", p)
				}
				hits = append(hits, w)
				for j := nm; j < p.WordLen; j++ {
					f := slices.Clone(w)
					f[j] ^= byte(1 + rng.Intn(255))
					if m.Match(f) {
						t.Fatalf("%+v: a word with checksum byte %d flipped matches", p, j-nm)
					}
					misses = append(misses, f)
				}
			}
			for i := 0; i < 8; i++ {
				w := randBytes(p.WordLen)
				want := refMatch(t, p, td, w)
				if m.Match(w) != want {
					t.Fatalf("%+v: Match(%x) disagrees with the reference", p, w)
				}
				if !want {
					misses = append(misses, w)
				}
			}
			for _, n := range []int{0, 1, p.WordLen - 1, p.WordLen + 1, 2 * p.WordLen} {
				w := genuine()
				w = append(w, w...)[:n]
				if m.Match(w) {
					t.Fatalf("%+v: a %d-byte word matches", p, n)
				}
				misses = append(misses, w)
			}
			// Every tuple size and every position of its one genuine word
			// (or none), the other words drawn from every kind of miss.
			for size := 0; size <= 9; size++ {
				for hit := -1; hit < size; hit++ {
					tuple := make([][]byte, size)
					for i := range tuple {
						tuple[i] = misses[rng.Intn(len(misses))]
					}
					if hit >= 0 {
						tuple[hit] = hits[rng.Intn(len(hits))]
					}
					anyMatch := slices.ContainsFunc(tuple, m.Match)
					got := m.MatchRun(1, func(int) [][]byte { return tuple }, nil)
					if anyMatch != (hit >= 0) || slices.Equal(got, []int{0}) != anyMatch {
						t.Fatalf("%+v: %d words, genuine at %d: any Match %v, one-document MatchRun %v", p, size, hit, anyMatch, got)
					}
				}
			}
		}
	}
}

// TestMatchRunDifferential holds the run kernel to refMatch over runs of
// documents that fill many flushes, as a full scan and through candidate
// lists, at every stream width 1..16 (words of 2 to 32 bytes) and every
// checksum width m, and at 17 and 40, two and three stream blocks.
// Documents hold 0..9 words: genuine ones, misses and words of other
// lengths. Each run puts a genuine word on the last block of a flush and
// another on the first block of the next, once in two documents and once
// in one, and gives documents two genuine words inside one flush; a
// document is reported once however many of its words match.
func TestMatchRunDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	widths := []int{17, 40}
	for nm := 1; nm <= crypto.BlockPRFSize; nm++ {
		widths = append(widths, nm)
	}
	for _, nm := range widths {
		for cs := 1; cs <= MaxChecksumLen; cs++ {
			p := Params{WordLen: nm + cs, ChecksumLen: cs}
			td := Trapdoor{X: randBytes(p.WordLen), K: randBytes(crypto.KeySize)}
			genuine := func() []byte {
				s := randBytes(nm)
				w := append(s, refChecksum(t, td.K, s, cs)...)
				subtle.XORBytes(w, w, td.X)
				return w
			}
			miss := func() []byte { return randBytes(p.WordLen) }
			other := func() []byte { // 1..2n bytes, never n
				l := 1 + rng.Intn(2*p.WordLen-1)
				if l >= p.WordLen {
					l++
				}
				return randBytes(l)
			}

			// blocks counts the trapdoor-length words so far: the word a
			// document adds next lands on block blocks%runBlocks of a flush.
			var docs [][][]byte
			blocks := 0
			push := func(doc ...[]byte) {
				docs = append(docs, doc)
				for _, w := range doc {
					if len(w) == p.WordLen {
						blocks++
					}
				}
			}
			fillTo := func(slot int) { // misses until the next word lands on slot
				for blocks%runBlocks != slot {
					push(miss(), other())
				}
			}
			for round := 0; round < 3; round++ {
				for i := 0; i < 8; i++ {
					doc := make([][]byte, rng.Intn(10))
					for j := range doc {
						switch r := rng.Intn(10); {
						case r == 0:
							doc[j] = genuine()
						case r < 7:
							doc[j] = miss()
						default:
							doc[j] = other()
						}
					}
					push(doc...)
				}
				fillTo(runBlocks - 2)
				push(miss(), genuine())            // the last block of a flush …
				push(genuine(), other(), miss())   // … and the first of the next
				push(genuine(), miss(), genuine()) // two in one flush
				fillTo(runBlocks - 1)
				push(other(), genuine(), genuine(), miss()) // one document across the flush
			}
			push()

			var want []int
			for i, doc := range docs {
				if slices.ContainsFunc(doc, func(w []byte) bool { return refMatch(t, p, td, w) }) {
					want = append(want, i)
				}
			}
			m := NewMatcher(p, td).Clone()
			// Both word loads are held to the reference: the two-load one
			// exactly where its fields lie in the first and last eight
			// bytes, the field loads everywhere else.
			if short := nm <= crypto.BlockPRFSize && p.WordLen >= 8 && p.WordLen <= 16 && cs <= 8; m.short != short {
				t.Fatalf("%+v: two-load path %v, want %v", p, m.short, short)
			}
			got := m.MatchRun(len(docs), func(i int) [][]byte { return docs[i] }, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("%+v: full run of %d documents found %v, want %v", p, len(docs), got, want)
			}
			// What hits already holds is the caller's: the kernel appends
			// after it, even a document index equal to its last entry.
			prefix := []int{-1, want[0]}
			if got := m.MatchRun(len(docs), func(i int) [][]byte { return docs[i] }, slices.Clone(prefix)); !slices.Equal(got, append(prefix, want...)) {
				t.Fatalf("%+v: run appended to %v found %v, want %v after it", p, prefix, got, want)
			}
			var cands, wantCands []int
			for i := range docs {
				if rng.Intn(3) > 0 {
					cands = append(cands, i)
					if slices.Contains(want, i) {
						wantCands = append(wantCands, i)
					}
				}
			}
			got = m.MatchRun(len(cands), func(i int) [][]byte { return docs[cands[i]] }, nil)
			for j, i := range got {
				got[j] = cands[i]
			}
			if !slices.Equal(got, wantCands) {
				t.Fatalf("%+v: run over %d candidates found %v, want %v", p, len(cands), got, wantCands)
			}
		}
	}
}

// TestMatchStridedDifferential runs fuzzStrided's checks of the strided
// form at every geometry TestMatchRunDifferential covers — stream widths
// 1..16, 17 and 40 at every checksum width — on two random run shapes
// each: whole, from a document on and at candidates, against the
// definition, MatchRun, a clone and, on amd64, the portable pass.
func TestMatchStridedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	widths := []int{17, 40}
	for nm := 1; nm <= crypto.BlockPRFSize; nm++ {
		widths = append(widths, nm)
	}
	for _, nm := range widths {
		for cs := 1; cs <= MaxChecksumLen; cs++ {
			for range 2 {
				var master crypto.Key
				rng.Read(master[:])
				fuzzStrided(t, Params{WordLen: nm + cs, ChecksumLen: cs}, master, rng)
			}
		}
	}
}

// FuzzMatchRun holds MatchRun, Match and a Clone's MatchRun to refMatch
// at stream widths 1..48 and checksum widths 1..16. The inputs pick the
// width, m, the key, X and a layout: one byte per step, ≡ 0 (mod 8) ends
// the document, 1 and 2 add a genuine word, 3 a genuine word with
// checksum byte (b>>3) mod m flipped, 4 and 5 a random word of the
// trapdoor's length, 6 and 7 a word one byte short and one byte long.
// Documents hold at most nine words and runs at most 40 documents, so
// genuine words can sit on either side of a flush, the blocks the seeds
// name: 31, 32 and 33 of a run. Each input then drives fuzzStrided,
// which holds the strided form to the textbook reference on a run of a
// random shape.
func FuzzMatchRun(f *testing.F) {
	// 31 trapdoor-length words, in documents of three with a short and a
	// long word between them, so the next word lands on block 31.
	var toFlush []byte
	for i := 0; i < 31; i++ {
		toFlush = append(toFlush, 4+byte(i%2), 6+byte(i%2))
		if i%3 == 2 {
			toFlush = append(toFlush, 0)
		}
	}
	// Genuine words alone in their documents on blocks 31 and 32, then
	// two in one; then one document across the flush whose one genuine
	// word is block 32. Flipped checksum bytes reach past m = 8.
	flush := append(slices.Clone(toFlush), 1, 0, 2, 0, 1, 2, 0, 0, 3|9<<3, 3|15<<3, 5, 0, 3|2<<3, 1)
	across := append(slices.Clone(toFlush), 4, 1, 5, 0, 1, 0, 3|12<<3, 6, 7, 0, 3|7<<3)
	key := []byte("fuzz-matchrun-key")
	for _, s := range []struct{ nm, cs uint8 }{{1, 16}, {8, 9}, {9, 2}, {16, 12}, {17, 1}, {32, 10}, {33, 16}, {40, 2}, {48, 9}} {
		f.Add(s.nm-1, s.cs-1, key, []byte{s.nm, s.cs, 0xa5}, flush)
		f.Add(s.nm-1, s.cs-1, key, []byte{s.cs}, across)
	}
	f.Fuzz(func(t *testing.T, nm, cs uint8, key, x, layout []byte) {
		p := Params{WordLen: int(nm%48) + 1 + int(cs%16) + 1, ChecksumLen: int(cs%16) + 1}
		stretch := func(b []byte, n int) []byte {
			out := make([]byte, n)
			for i := range out {
				if len(b) > 0 {
					out[i] = b[i%len(b)] ^ byte(i/len(b))
				}
			}
			return out
		}
		td := Trapdoor{X: stretch(x, p.WordLen), K: stretch(key, crypto.KeySize)}
		h := fnv.New64a()
		h.Write(slices.Concat(key, x, layout))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		nml := p.streamLen()
		genuine := func() []byte {
			s := randBytes(nml)
			w := append(s, refChecksum(t, td.K, s, p.ChecksumLen)...)
			subtle.XORBytes(w, w, td.X)
			return w
		}
		docs := [][][]byte{nil}
		for _, b := range layout {
			last := len(docs) - 1
			if b%8 == 0 || len(docs[last]) == 9 {
				if len(docs) == 40 {
					break
				}
				docs = append(docs, nil)
				last++
				if b%8 == 0 {
					continue
				}
			}
			var w []byte
			switch b % 8 {
			case 1, 2:
				w = genuine()
			case 3:
				w = genuine()
				w[nml+int(b>>3)%p.ChecksumLen] ^= 1 + byte(rng.Intn(255))
			case 4, 5:
				w = randBytes(p.WordLen)
			case 6:
				w = randBytes(p.WordLen - 1)
			case 7:
				w = randBytes(p.WordLen + 1)
			}
			docs[last] = append(docs[last], w)
		}
		var want []int
		m := NewMatcher(p, td)
		for i, doc := range docs {
			found := false
			for _, w := range doc {
				ref := refMatch(t, p, td, w)
				if m.Match(w) != ref {
					t.Fatalf("%+v: Match(%x) = %v, reference %v", p, w, !ref, ref)
				}
				found = found || ref
			}
			if found {
				want = append(want, i)
			}
		}
		doc := func(i int) [][]byte { return docs[i] }
		if got := m.MatchRun(len(docs), doc, nil); !slices.Equal(got, want) {
			t.Fatalf("%+v: MatchRun over %d documents found %v, want %v", p, len(docs), got, want)
		}
		if got := m.Clone().MatchRun(len(docs), doc, nil); !slices.Equal(got, want) {
			t.Fatalf("%+v: a clone's MatchRun over %d documents found %v, want %v", p, len(docs), got, want)
		}
		fuzzStrided(t, p, crypto.KeyFromBytes(stretch(key, crypto.KeySize)), rng)
	})
}

// fuzzStrided holds MatchStrided, on a run of up to 40 documents of one
// random shape — an ID and a blob of 0..20 bytes each, then 1..10 words,
// each of the trapdoor's length, shorter than 8, of 8..16 or longer than
// 16 bytes — to the match test by definition (refMatch) under a trapdoor
// and cipherwords of swptest's textbook scheme: a trapdoor-length word is
// the trapdoor's word encrypted at its document and position, that with
// a checksum byte flipped, another word encrypted or random bytes. It
// scans the run whole, from a random document on and at a random
// candidate set, after hits already holding a prefix, and checks MatchRun
// over the same documents in tuple form; a clone, and on amd64 the
// portable pass in place of the fused kernel, must agree.
func fuzzStrided(t *testing.T, p Params, master crypto.Key, rng *rand.Rand) {
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	ref := swptest.New(master, p.WordLen, p.ChecksumLen)
	target := randBytes(p.WordLen)
	x, k := ref.Trapdoor(target)
	td := Trapdoor{X: x, K: k}
	idLen, blobLen := rng.Intn(21), rng.Intn(21)
	lens := make([]int, 1+rng.Intn(10))
	for i := range lens {
		switch rng.Intn(4) {
		case 0:
			lens[i] = 1 + rng.Intn(7)
		case 1:
			lens[i] = 8 + rng.Intn(9)
		case 2:
			lens[i] = 17 + rng.Intn(32)
		default:
			lens[i] = p.WordLen
		}
	}
	encrypt := func(docID []byte, pos int, w []byte) []byte {
		c, err := ref.EncryptWord(docID, uint64(pos), w)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	docs := make([][][]byte, rng.Intn(41))
	var body []byte
	var want []int
	for i := range docs {
		docID := randBytes(DocIDLen)
		body = append(body, randBytes(idLen+blobLen)...)
		for pos, l := range lens {
			w := randBytes(l)
			switch r := rng.Intn(8); {
			case l != p.WordLen:
			case r < 2:
				if w = encrypt(docID, pos, target); !refMatch(t, p, td, w) {
					t.Fatalf("%+v: the reference's cipherword of the trapdoor's word does not match", p)
				}
			case r == 2:
				w = encrypt(docID, pos, target)
				w[p.streamLen()+rng.Intn(p.ChecksumLen)] ^= 1 + byte(rng.Intn(255))
			case r == 3:
				w = encrypt(docID, pos, w)
			}
			docs[i] = append(docs[i], w)
			body = append(body, w...)
		}
		if slices.ContainsFunc(docs[i], func(w []byte) bool { return refMatch(t, p, td, w) }) {
			want = append(want, i)
		}
	}
	n, at, stride := len(docs), idLen+blobLen, idLen+blobLen
	for _, l := range lens {
		stride += l
	}
	base, lo := rng.Intn(1000), rng.Intn(len(docs)+1)
	rows := []int{} // not nil: no candidate at all
	var wantRows, wantFrom []int
	for i := range docs {
		if rng.Intn(3) > 0 {
			rows = append(rows, base+i)
			if slices.Contains(want, i) {
				wantRows = append(wantRows, base+i)
			}
		}
		if i >= lo && slices.Contains(want, i) {
			wantFrom = append(wantFrom, base+i)
		}
	}
	wantAll := make([]int, len(want))
	for j, i := range want {
		wantAll[j] = base + i
	}
	m := NewMatcher(p, td)
	matchers := map[string]*Matcher{"matcher": m, "clone": m.Clone()}
	if m.fused {
		c := m.Clone()
		c.fused = false
		matchers["portable"] = c
	}
	prefix := []int{-1, base}
	for name, mm := range matchers {
		if n > 0 {
			if got := mm.MatchStrided(body, stride, at, lens, base, nil, nil); !slices.Equal(got, wantAll) {
				t.Fatalf("%+v %s: %d documents of shape %d+%d %v found %v, want %v", p, name, n, idLen, blobLen, lens, got, wantAll)
			}
			if got := mm.MatchStrided(body[lo*stride:], stride, at, lens, base+lo, nil, slices.Clone(prefix)); !slices.Equal(got, append(slices.Clone(prefix), wantFrom...)) {
				t.Fatalf("%+v %s: documents from %d of shape %d+%d %v found %v, want %v after %v", p, name, lo, idLen, blobLen, lens, got, wantFrom, prefix)
			}
		}
		if got := mm.MatchStrided(body, stride, at, lens, base, rows, nil); !slices.Equal(got, wantRows) {
			t.Fatalf("%+v %s: candidates %v of shape %d+%d %v found %v, want %v", p, name, rows, idLen, blobLen, lens, got, wantRows)
		}
		if got := mm.MatchRun(n, func(i int) [][]byte { return docs[i] }, nil); !slices.Equal(got, want) {
			t.Fatalf("%+v %s: MatchRun over the same %d documents found %v, want %v", p, name, n, got, want)
		}
	}
}

// BenchmarkMatchRun measures ψ per tuple over a 10,000-tuple run of
// three-word tuples: emp is the emp table's shape (n = 11, m = 2, one
// stream block), wide a 19-digit int column's (n = 21, m = 2, two stream
// blocks). The tuple-form arms hold every word in its own allocation, as
// EncryptTable lays them out, through one MatchRun, the call MatchTuples
// makes per scan chunk; the -slab arms hold the same tuples as a slab run
// does, a 16-byte ID and the words back to back at a constant stride,
// through one MatchStrided, the store's scan. aes encrypts the emp arms'
// block count in runs of runBlocks, so the ratio of emp-slab to aes in
// ns/tuple is ψ's cost over its AES floor on one binary. Each must report
// 0 allocs/op.
func BenchmarkMatchRun(b *testing.B) {
	const tuples = 10000
	for _, arm := range []struct {
		name string
		p    Params
	}{{"emp", Params{WordLen: 11, ChecksumLen: 2}}, {"wide", Params{WordLen: 21, ChecksumLen: 2}}} {
		_, cws, td := matcherFixture(b, arm.p)
		rng := rand.New(rand.NewSource(31))
		docs := make([][][]byte, tuples)
		for i := range docs {
			docs[i] = make([][]byte, 3)
			for j := range docs[i] {
				docs[i][j] = slices.Clone(cws[rng.Intn(len(cws))])
			}
		}
		perTuple := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tuples), "ns/tuple")
		}
		b.Run(arm.name, func(b *testing.B) {
			m := NewMatcher(arm.p, td)
			doc := func(i int) [][]byte { return docs[i] }
			hits := m.MatchRun(len(docs), doc, nil)
			b.ReportAllocs()
			for b.Loop() {
				hits = m.MatchRun(len(docs), doc, hits[:0])
			}
			perTuple(b)
		})
		b.Run(arm.name+"-slab", func(b *testing.B) {
			lens := []int{arm.p.WordLen, arm.p.WordLen, arm.p.WordLen}
			var body []byte
			for _, d := range docs {
				body = append(append(body, testDoc("id")...), slices.Concat(d...)...)
			}
			m := NewMatcher(arm.p, td)
			stride := len(body) / tuples
			hits := m.MatchStrided(body, stride, DocIDLen, lens, 0, nil, nil)
			b.ReportAllocs()
			for b.Loop() {
				hits = m.MatchStrided(body, stride, DocIDLen, lens, 0, nil, hits[:0])
			}
			perTuple(b)
		})
	}
	b.Run("aes", func(b *testing.B) {
		a := crypto.NewAES256(crypto.Key{})
		blocks := make([][crypto.BlockPRFSize]byte, runBlocks)
		b.ReportAllocs()
		for b.Loop() {
			for i := 0; i < 3*tuples; i += runBlocks {
				a.EncryptBlocks(blocks[:min(runBlocks, 3*tuples-i)])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tuples), "ns/tuple")
	})
}

// BenchmarkMatchTuple measures ψ on one tuple of the emp table's shape —
// three words, n = 11, m = 2 — through MatchRun on one document: three
// blocks in one AES256 call. BenchmarkMatchRun is the per-tuple cost a
// scan pays. Must report 0 allocs/op.
func BenchmarkMatchTuple(b *testing.B) {
	p := Params{WordLen: 11, ChecksumLen: 2}
	_, cws, td := matcherFixture(b, p)
	m := NewMatcher(p, td)
	tuples := len(cws) / 3
	hits := make([]int, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuple := cws[3*(i%tuples):][:3]
		hits = m.MatchRun(1, func(int) [][]byte { return tuple }, hits[:0])
	}
}

// TestWorkerStateCacheLineDisjoint pins the layout the scan's worker pool
// depends on: nothing a match writes on one worker's Matcher — the pass's
// blocks, offsets, word slots and stage — shares a 64-byte line with what it
// writes on another's, nor with what another worker reads on every match:
// its Matcher struct and its AES key schedule. Otherwise every match on
// one core invalidates a line the other core needs for its next one, and
// two workers scan slower than one. It runs at one stream block and at
// three.
func TestWorkerStateCacheLineDisjoint(t *testing.T) {
	type span struct{ lo, hi uintptr } // [lo, hi) in bytes
	spanOf := func(p unsafe.Pointer, size uintptr) span {
		return span{uintptr(p), uintptr(p) + size}
	}
	lines := func(spans ...span) map[uintptr]bool {
		out := map[uintptr]bool{}
		for _, s := range spans {
			for l := s.lo / cacheLine; s.hi > s.lo && l <= (s.hi-1)/cacheLine; l++ {
				out[l] = true
			}
		}
		return out
	}
	for _, p := range []Params{{WordLen: 11, ChecksumLen: 2}, {WordLen: 42, ChecksumLen: 16}} {
		_, _, td := matcherFixture(t, p)
		base := NewMatcher(p, td)
		if base.k == nil {
			t.Fatalf("%+v: matcher has no kernel", p)
		}
		workers := []*Matcher{base, base.Clone(), base.Clone(), base.Clone()}
		written := make([]map[uintptr]bool, len(workers))
		read := make([]map[uintptr]bool, len(workers))
		for i, m := range workers {
			k := m.k
			written[i] = lines(spanOf(unsafe.Pointer(&k.blocks), unsafe.Sizeof(k.blocks)),
				spanOf(unsafe.Pointer(&k.offs), unsafe.Sizeof(k.offs)),
				spanOf(unsafe.Pointer(&k.word), unsafe.Sizeof(k.word)),
				spanOf(unsafe.Pointer(&k.stage), unsafe.Sizeof(k.stage)))
			read[i] = lines(spanOf(unsafe.Pointer(&k.aes), unsafe.Sizeof(k.aes)), spanOf(unsafe.Pointer(m), unsafe.Sizeof(*m)))
		}
		for i := range workers {
			for j := range workers {
				if i == j {
					continue
				}
				for l := range written[i] {
					if written[j][l] {
						t.Errorf("%+v: workers %d and %d both write cache line %#x", p, i, j, l*cacheLine)
					}
					if read[j][l] {
						t.Errorf("%+v: worker %d writes cache line %#x, which holds worker %d's Matcher or key schedule", p, i, l*cacheLine, j)
					}
				}
			}
		}
	}
}

func TestFalsePositiveRatePinned(t *testing.T) {
	// Satellite: 2^(-8m) via math.Ldexp, pinned for m = 1..4.
	want := map[int]float64{
		1: 1.0 / 256,
		2: 1.0 / 65536,
		3: 1.0 / 16777216,
		4: 1.0 / 4294967296,
	}
	for m, w := range want {
		p := Params{WordLen: 8, ChecksumLen: m}
		if got := p.FalsePositiveRate(); got != w {
			t.Errorf("FalsePositiveRate(m=%d) = %g, want %g", m, got, w)
		}
		if got := p.FalsePositiveRate(); got != math.Ldexp(1, -8*m) {
			t.Errorf("FalsePositiveRate(m=%d) disagrees with Ldexp", m)
		}
	}
}

// BenchmarkMatch measures the per-cipherword cost of the server-side test
// through a reused Matcher — the unit the table-scan engine multiplies by
// (tuples × words) — at each of benchStreamWidths. Every width must report
// 0 allocs/op.
func BenchmarkMatch(b *testing.B) {
	for _, nm := range benchStreamWidths {
		b.Run(fmt.Sprintf("stream=%d", nm), func(b *testing.B) {
			p := Params{WordLen: nm + 2, ChecksumLen: 2}
			_, cws, td := matcherFixture(b, p)
			m := NewMatcher(p, td)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Match(cws[i%len(cws)])
			}
		})
	}
}
