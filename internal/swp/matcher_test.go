package swp

import (
	"bytes"
	"crypto/aes"
	"crypto/hmac"
	"crypto/subtle"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/crypto"
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
// on both paths. On the CBC-MAC path NewMatcher is the Matcher, AES's key
// schedule, the isolated PRF and the scratch, and Clone shares the key
// schedule. On the run kernel it is the Matcher and the kernel, which
// holds the key schedule (plus crypto/aes's cipher where AES256 falls
// back to it) beside the run's blocks and owners, not in allocations of
// their own.
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

// TestMatchKernelDifferential holds both kernels — one AES block for every
// stream width 1..16, CBC-MAC at 17 and 40 — to refMatch, at every
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
// checksum width m, and at 17 and 40 on the CBC-MAC path. Documents hold
// 0..9 words: genuine ones, misses and words of other lengths. Each run
// puts a genuine word on the last block of a flush and another on the
// first block of the next, once in two documents and once in one, and
// gives documents two genuine words inside one flush; a document is
// reported once however many of its words match.
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

// BenchmarkMatchRun measures ψ per tuple over a 10,000-tuple run of the
// emp table's shape — three words each, n = 11, m = 2, every word its own
// allocation as EncryptTable lays them out — through one MatchRun, the
// call MatchTuples makes per scan chunk. Must report 0 allocs/op.
func BenchmarkMatchRun(b *testing.B) {
	p := Params{WordLen: 11, ChecksumLen: 2}
	_, cws, td := matcherFixture(b, p)
	rng := rand.New(rand.NewSource(31))
	docs := make([][][]byte, 10000)
	for i := range docs {
		docs[i] = make([][]byte, 3)
		for j := range docs[i] {
			docs[i][j] = slices.Clone(cws[rng.Intn(len(cws))])
		}
	}
	m := NewMatcher(p, td)
	doc := func(i int) [][]byte { return docs[i] }
	hits := m.MatchRun(len(docs), doc, nil)
	b.ReportAllocs()
	for b.Loop() {
		hits = m.MatchRun(len(docs), doc, hits[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/tuple")
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
// depends on: nothing a match writes on one worker's Matcher — the run's
// blocks and owners on the run kernel, or t, got and the PRF's chaining
// block on the CBC-MAC path — shares a 64-byte line with what it writes on
// another's, nor with what another worker reads on every match: its
// Matcher and PRF structs and its AES key schedule. Otherwise every match
// on one core invalidates a line the other core needs for its next one,
// and two workers scan slower than one.
func TestWorkerStateCacheLineDisjoint(t *testing.T) {
	type span struct{ lo, hi uintptr } // [lo, hi) in bytes
	bytesOf := func(b []byte) span {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return span{lo, lo + uintptr(len(b))}
	}
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
		if oneBlock := p.streamLen() <= crypto.BlockPRFSize; (base.k != nil) != oneBlock || (base.t != nil) == oneBlock {
			t.Fatalf("%+v: matcher has run kernel %v, t %v; want the run kernel %v", p, base.k != nil, base.t != nil, oneBlock)
		}
		workers := []*Matcher{base, base.Clone(), base.Clone(), base.Clone()}
		written := make([]map[uintptr]bool, len(workers))
		read := make([]map[uintptr]bool, len(workers))
		for i, m := range workers {
			var w, r []span
			if k := m.k; k != nil {
				w = append(w, spanOf(unsafe.Pointer(&k.blocks), unsafe.Sizeof(k.blocks)),
					spanOf(unsafe.Pointer(&k.owner), unsafe.Sizeof(k.owner)))
				r = append(r, spanOf(unsafe.Pointer(&k.aes), unsafe.Sizeof(k.aes)))
			} else {
				state := reflect.ValueOf(m.kprf).Elem().FieldByName("state")
				w = append(w, bytesOf(m.t), bytesOf(m.got), span{state.UnsafeAddr(), state.UnsafeAddr() + state.Type().Size()})
				r = append(r, spanOf(unsafe.Pointer(m.kprf), unsafe.Sizeof(*m.kprf)))
			}
			written[i] = lines(w...)
			read[i] = lines(append(r, spanOf(unsafe.Pointer(m), unsafe.Sizeof(*m)))...)
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
						t.Errorf("%+v: worker %d writes cache line %#x, which holds worker %d's Matcher, PRF or key schedule", p, i, l*cacheLine, j)
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
