package authindex

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/ph"
	"repro/internal/wire"
)

// fuzzLeaves maps a fuzzer's leaf argument to a leaf count: 1…40 plus
// 0…3 × CapNodes, so the cut stops at cap levels 0, 1 and 2.
func fuzzLeaves(raw uint16) int { return int(raw&0x3FFF)%40 + 1 + int(raw>>14)*CapNodes }

// leafArg is fuzzLeaves' inverse for n = q × CapNodes + r, 1 <= r <= 40.
func leafArg(n int) uint16 { return uint16((n-1)/CapNodes<<14 | (n-1)%CapNodes) }

// fuzzTrees builds each leaf count's table and tree once per process.
var fuzzTrees = struct {
	sync.Mutex
	m map[int]*Tree
}{m: make(map[int]*Tree)}

// fuzzTree returns tableOf(n) and its tree.
func fuzzTree(n int) (*ph.EncryptedTable, *Tree) {
	fuzzTrees.Lock()
	defer fuzzTrees.Unlock()
	tab := &ph.EncryptedTable{SchemeID: "x", Tuples: fuzzTable.Tuples[:n]}
	if fuzzTrees.m[n] == nil {
		fuzzTrees.m[n] = Build(tab)
	}
	return tab, fuzzTrees.m[n]
}

// fuzzTable holds tableOf(n)'s tuples for every n fuzzLeaves returns.
var fuzzTable = tableOf(3*CapNodes + 40)

// FuzzDecodeProofsVerify drives attacker-controlled bytes through the
// verified-answer decoder and the multiproof verifier: whatever
// DecodeVerifiedResult accepts must never panic VerifyAnswer, must never
// allocate beyond the remaining payload for a lying declared length, and
// — the soundness property — must only verify when its tuples are the
// tree's own at strictly ascending in-range positions and its sibling
// block is byte for byte the honest proof for that position set. (The
// name predates the multiproof; the test floor lists it and its seeds.)
func FuzzDecodeProofsVerify(f *testing.F) {
	// Honest answers at odd and even leaf counts, below and above the
	// cap, seed the corpus, plus targeted mutants: truncated, extended
	// and flipped sibling blocks, lengths off the hash grid, another
	// set's siblings, an empty answer carrying siblings, bad position
	// sets, a substituted tuple, and the proof to the root with a
	// sibling more and less.
	for _, n := range []int{1, 2, 3, 5, 8, 9, 16, 17, 33, CapNodes + 1, 2*CapNodes + 3, 3*CapNodes + 33} {
		tab, tree := fuzzTree(n)
		root := tree.Root()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if n <= CapNodes {
			f.Add(encodeAnswer(tab, root, n, all, nil), leafArg(n))
		}
		positions, other := []int{0, n - 1}, []int{1, n - 1}
		if n < 3 {
			positions, other = []int{0}, []int{n - 1}
		}
		proof, err := tree.ProveAnswer(positions)
		if err != nil {
			f.Fatal(err)
		}
		otherProof, err := tree.ProveAnswer(other)
		if err != nil {
			f.Fatal(err)
		}
		full, err := tree.proveAnswer(positions, 1)
		if err != nil {
			f.Fatal(err)
		}
		add := func(positions []int, proof []byte) {
			f.Add(encodeAnswer(tab, root, n, positions, proof), leafArg(n))
		}
		add(positions, proof)
		add(positions, otherProof)
		add(positions, append(append([]byte(nil), proof...), make([]byte, HashSize)...))
		add(positions, append(append([]byte(nil), proof...), 0xAB))
		add(nil, make([]byte, HashSize))
		add([]int{0, 0}, proof)
		add([]int{n - 1, 0}, proof)
		add([]int{0, n}, proof)
		if len(proof) > 0 {
			add(positions, proof[HashSize:])
			flipped := append([]byte(nil), proof...)
			flipped[0] ^= 1
			add(positions, flipped)
		}
		if len(full) > 0 {
			add(positions, full)
			add(positions, append(append([]byte(nil), full...), make([]byte, HashSize)...))
			add(positions, full[HashSize:])
		}
		// A genuine tuple of the table served at a position it is not at.
		swapped := encodeAnswer(tab, root, n, positions, proof)
		f.Add(bytes.Replace(swapped, tab.Tuples[0].Blob, tab.Tuples[n-1].Blob, 1), leafArg(n))
	}
	// Hostile declared lengths over tiny payloads.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(8))
	empty := wire.AppendU64(wire.AppendU32(wire.AppendBytes(wire.AppendU32(wire.AppendU32(nil, 0), 0), make([]byte, HashSize)), 8), 1)
	f.Add(wire.AppendU32(empty, 0xFFFFFFFF), uint16(8))
	f.Add(wire.AppendU32(empty, 0), uint16(8))
	f.Add([]byte{}, uint16(8))

	f.Fuzz(func(t *testing.T, data []byte, leafRaw uint16) {
		n := fuzzLeaves(leafRaw)
		_, tree := fuzzTree(n)

		vr, err := DecodeVerifiedResult(wire.NewBuffer(data))
		if err != nil {
			return // malformed encodings must be rejected, never panic
		}
		if len(vr.Multiproof) > len(data) {
			t.Fatalf("decoded %d proof bytes out of a %d-byte payload", len(vr.Multiproof), len(data))
		}
		positions, tuples := vr.Result.Positions, vr.Result.Tuples
		err = VerifyAnswer(tree.row(CapNodes), n, positions, tuples, vr.Multiproof)
		// Soundness: a decoded answer may only verify if it is exactly the
		// honest one for its position set.
		honest, herr := tree.ProveAnswer(positions)
		genuine := herr == nil && len(tuples) == len(positions) && bytes.Equal(vr.Multiproof, honest)
		for i := 0; genuine && i < len(tuples); i++ {
			genuine = bytes.Equal(LeafHash(tuples[i]), tree.levels[0][positions[i]*HashSize:][:HashSize])
		}
		if genuine && err != nil {
			t.Fatalf("honest answer at %v of %d leaves rejected: %v", positions, n, err)
		}
		if !genuine && err == nil {
			t.Fatalf("forged answer at %v of %d leaves accepted (%d proof bytes, honest %d, prover: %v)", positions, n, len(vr.Multiproof), len(honest), herr)
		}
	})
}

// FuzzVerifyCached drives one LeafCache through a script of appends and
// reads over a growing table, below the cap or above it, where the fold
// stops at level 1, 2 or 3. Each read is a random position subset of the
// current tree, served honestly or with one thing bent — a tuple byte, a
// tuple swapped for another genuine one, a position, the leaf count or a
// sibling byte — and checked against the tree's cap row both through the
// cache, which earlier reads seeded, and by VerifyAnswer. Two properties
// hold on every read:
//   - soundness: if the cached path accepts, every tuple is the genuine
//     tuple at its position;
//   - no lost answers: if VerifyAnswer accepts, the cached path accepts.
func FuzzVerifyCached(f *testing.F) {
	// Script bytes: the initial size (b%40 + 1 leaves, plus
	// b/64 × CapNodes − 20 for b >= 64: so a short script's appends can
	// carry the tree across CapNodes and 2 × CapNodes), then ops. An op byte ≡ 0 (mod 4) appends; any other reads, followed
	// by two bytes of subset seed, a tamper kind and the tamper's own
	// bytes.
	f.Add([]byte{9, 1, 0, 1, 0, 1, 0, 1, 0})
	for tamper := byte(1); tamper < 6; tamper++ {
		f.Add([]byte{17, 1, 7, 3, 0, 1, 7, 3, tamper, 0, 5, 1})
		f.Add([]byte{12, 1, 2, 9, 0, 4, 5, 1, 2, 9, tamper, 1, 3, 7})
	}
	f.Add([]byte{33, 1, 0, 0, 0, 4, 7, 1, 0, 0, 0, 4, 1, 1, 0, 0, 4, 2})
	// A substituted tuple refused, then the honest answer at the same
	// positions: it must not meet the refused leaf in the cache.
	f.Add([]byte("01102001"))
	// Across the cap: a read, appends that carry the tree from 4,087
	// leaves past CapNodes (the row pairs up), a read with a flipped
	// sibling, an honest read; the same from 8,190 leaves past
	// 2 × CapNodes; reads at cap level 2.
	f.Add([]byte{90, 1, 7, 3, 0, 0, 7, 0, 7, 1, 9, 9, 5, 3, 1, 2, 0, 0})
	f.Add([]byte{137, 1, 2, 9, 0, 0, 7, 1, 2, 9, 5, 0, 7, 1, 4, 4, 1})
	f.Add([]byte{197, 2, 3, 3, 1, 0, 1, 2, 3, 3, 0})
	const most = 3*CapNodes + 600
	full := tableOf(most)
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		b := next()
		n := b%40 + 1
		if q := b / 64; q > 0 {
			n += q*CapNodes - 20
		}
		tree := Build(&ph.EncryptedTable{Tuples: full.Tuples[:n]})
		cache := NewLeafCache()
		for ops := 0; len(script) > 0 && ops < 64; ops++ { // a long script is many short ones
			if next()%4 == 0 {
				k := min(next()%8+1, most-n)
				var hashes []byte
				for _, tp := range full.Tuples[n : n+k] {
					hashes = AppendLeafHash(hashes, tp)
				}
				tree.ExtendFlat(hashes)
				n += k
				continue
			}
			// About a third of the positions, at most about 40, picked by
			// a xorshift generator seeded from the script.
			x := uint32(next()<<8|next()) | 1
			var positions []int
			for p := 0; p < n; p++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				if x%uint32(max(3, n/40)) == 0 {
					positions = append(positions, p)
				}
			}
			tuples := tuplesAt(full, positions)
			proof, err := tree.ProveAnswer(positions)
			if err != nil {
				t.Fatal(err)
			}
			row, leafCount := tree.CapRow(), n
			switch tamper := next() % 6; {
			case tamper == 1 && len(tuples) > 0:
				i := next() % len(tuples)
				tp := tuples[i]
				tp.Blob = bytes.Clone(tp.Blob)
				tp.Blob[next()%len(tp.Blob)] ^= byte(1 + next()%255)
				tuples[i] = tp
			case tamper == 2 && len(tuples) > 0:
				tuples[next()%len(tuples)] = full.Tuples[next()%n]
			case tamper == 3 && len(positions) > 0:
				positions[next()%len(positions)] = next() % (n + 2)
			case tamper == 4:
				leafCount = max(1, n+next()%5-2)
			case tamper == 5 && len(proof) > 0:
				proof[next()%len(proof)] ^= byte(1 << (next() % 8))
			}
			plain := VerifyAnswer(row, leafCount, positions, tuples, proof)
			cached := cache.VerifyAnswer(row, leafCount, positions, tuples, proof)
			if plain == nil && cached != nil {
				t.Fatalf("answer at %v of %d leaves verified, refused through the cache: %v", positions, leafCount, cached)
			}
			if cached != nil {
				continue
			}
			for i, p := range positions {
				if p >= n || !sameTuple(tuples[i], full.Tuples[p]) {
					t.Fatalf("cached path accepted a tuple that is not the one at position %d of %d", p, n)
				}
			}
		}
	})
}

// sameTuple reports whether two encrypted tuples are byte for byte equal.
func sameTuple(a, b ph.EncryptedTuple) bool {
	return bytes.Equal(a.ID, b.ID) && bytes.Equal(a.Blob, b.Blob) &&
		slices.EqualFunc(a.Words, b.Words, bytes.Equal)
}
