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
	cws, err := s.EncryptDocument([]byte("doc"), words)
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
		if m.Match(cw) != Match(s.Params(), cw, td) {
			t.Fatalf("Matcher and Match disagree at position %d", i)
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
			allocs = testing.AllocsPerRun(500, func() {
				for i := 0; i+3 <= 32; i += 3 {
					m.MatchAny(cws[i : i+3])
				}
			})
			if allocs != 0 {
				t.Fatalf("stream width %d: %s Matcher.MatchAny allocates %v objects per ten 3-word tuples, want 0", nm, name, allocs)
			}
		}
	}
}

// TestMatcherSetupAllocs holds a scan's per-trapdoor setup to what it cost
// before the one-block kernel, on both paths: NewMatcher is the Matcher,
// AES's key schedule, the isolated PRF and the scratch; Clone shares the
// key schedule. The batch blocks live in the scratch allocation, not
// beside it.
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
// length never match, and MatchAny on tuples of 0..9 mixed-length words
// (across the batch boundary) is exactly "any word matches".
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
					if anyMatch != (hit >= 0) || m.MatchAny(tuple) != anyMatch {
						t.Fatalf("%+v: %d words, genuine at %d: any Match %v, MatchAny %v", p, size, hit, anyMatch, m.MatchAny(tuple))
					}
				}
			}
		}
	}
}

// BenchmarkMatchTuple measures ψ on one tuple of the emp table's shape —
// three words, n = 11, m = 2 — through MatchAny, the unit MatchTuples
// multiplies by the table size. BenchmarkMatch times single words and
// cannot see the batch. Must report 0 allocs/op.
func BenchmarkMatchTuple(b *testing.B) {
	p := Params{WordLen: 11, ChecksumLen: 2}
	_, cws, td := matcherFixture(b, p)
	m := NewMatcher(p, td)
	tuples := len(cws) / 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 3 * (i % tuples)
		m.MatchAny(cws[j : j+3])
	}
}

// TestWorkerStateCacheLineDisjoint pins the layout the scan's worker pool
// depends on: nothing a match writes on one worker's Matcher — the batch
// blocks of the one-block kernel, or t, got and the PRF's chaining block
// of the CBC-MAC path — shares a 64-byte line with what it writes on
// another's, nor with the structs another worker reads its own fields from.
// Otherwise every match on one core invalidates a line the other core
// needs for its next one, and two workers scan slower than one.
func TestWorkerStateCacheLineDisjoint(t *testing.T) {
	type span struct{ lo, hi uintptr } // [lo, hi) in bytes
	bytesOf := func(b []byte) span {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return span{lo, lo + uintptr(len(b))}
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
		if oneBlock := p.streamLen() <= crypto.BlockPRFSize; (base.blocks != nil) != oneBlock || (base.t != nil) == oneBlock {
			t.Fatalf("%+v: matcher has blocks %v, t %v; want the one-block kernel's scratch %v", p, base.blocks != nil, base.t != nil, oneBlock)
		}
		workers := []*Matcher{base, base.Clone(), base.Clone(), base.Clone()}
		written := make([]map[uintptr]bool, len(workers))
		header := make([]map[uintptr]bool, len(workers))
		for i, m := range workers {
			state := reflect.ValueOf(m.kprf).Elem().FieldByName("state")
			var blocks span
			if m.blocks != nil {
				blocks.lo = uintptr(unsafe.Pointer(m.blocks))
				blocks.hi = blocks.lo + unsafe.Sizeof(*m.blocks)
			}
			written[i] = lines(bytesOf(m.t), bytesOf(m.got), blocks,
				span{state.UnsafeAddr(), state.UnsafeAddr() + state.Type().Size()})
			lo, prf := uintptr(unsafe.Pointer(m)), uintptr(unsafe.Pointer(m.kprf))
			header[i] = lines(span{lo, lo + unsafe.Sizeof(*m)}, span{prf, prf + unsafe.Sizeof(*m.kprf)})
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
					if header[j][l] {
						t.Errorf("%+v: worker %d writes cache line %#x, which holds worker %d's Matcher or PRF struct", p, i, l*cacheLine, j)
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
