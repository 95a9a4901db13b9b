package authindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ph"
	"repro/internal/wire"
)

// refPath is RFC 6962 §2.1.1's audit path PATH(m, D[n]) over leaf hashes,
// written as the RFC writes it (recursive largest-power-of-two split) and
// sharing nothing with ascend: the reference the k = 1 case is held to.
func refPath(m int, leaves [][]byte) [][]byte {
	if len(leaves) <= 1 {
		return nil
	}
	k := 1
	for k*2 < len(leaves) {
		k *= 2
	}
	if m < k {
		return append(refPath(m, leaves[:k]), refRoot(leaves[k:]))
	}
	return append(refPath(m-k, leaves[k:]), refRoot(leaves[:k]))
}

// refRoot is RFC 6962's MTH over leaf hashes.
func refRoot(leaves [][]byte) []byte {
	if len(leaves) == 1 {
		return leaves[0]
	}
	k := 1
	for k*2 < len(leaves) {
		k *= 2
	}
	h := interiorHash(refRoot(leaves[:k]), refRoot(leaves[k:]))
	return h[:]
}

// subset returns the positions whose bit is set in mask, ascending.
func subset(mask, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if mask>>i&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// grown builds tab's tree by Extend in the given step from the empty tree.
func grown(tab *ph.EncryptedTable, step int) *Tree {
	tree := Build(&ph.EncryptedTable{})
	for n := 0; n < len(tab.Tuples); n += step {
		end := min(n+step, len(tab.Tuples))
		tree.Extend(leavesOf(&ph.EncryptedTable{Tuples: tab.Tuples[n:end]}))
	}
	return tree
}

// stops lists, for an n-leaf tree, one stop width per distinct cut: the
// width of every level from the leaves (no siblings at all) up to the
// root (1). Every stop width between two of them cuts as the lower one.
func stops(n int) []int {
	out := []int{max(n, 1)}
	for w := n; w > 1; {
		w = (w + 1) / 2
		out = append(out, w)
	}
	return out
}

// TestMultiproofSubsetEquivalence: for every n ≤ 12, every position
// subset and every stop width from the leaves up to the root, the
// verifier accepts the honest tuples against the row it stops at and
// refuses any single substituted one; the cut is the same on a tree made
// by Build and on trees grown by Extend in steps of 1, 3 and 64 alike;
// and at the root it is byte for byte the fold of Tree.Prove's per-leaf
// paths.
func TestMultiproofSubsetEquivalence(t *testing.T) {
	for n := 0; n <= 12; n++ {
		tab := tableOf(n)
		built := Build(tab)
		trees := []*Tree{grown(tab, 1), grown(tab, 3), grown(tab, 64)}
		foreign := tableOf(n + 1).Tuples[n] // genuine-looking, but no leaf of this tree
		for _, stop := range stops(n) {
			row := built.row(stop)
			for mask := 0; mask < 1<<n; mask++ {
				positions := subset(mask, n)
				proof, err := built.proveAnswer(positions, stop)
				if err != nil {
					t.Fatalf("n=%d stop=%d %v: %v", n, stop, positions, err)
				}
				for i, tree := range trees {
					got, err := tree.proveAnswer(positions, stop)
					if err != nil || !bytes.Equal(got, proof) || !bytes.Equal(tree.row(stop), row) {
						t.Fatalf("n=%d stop=%d %v: tree grown in steps of %d cuts a different proof (err %v)", n, stop, positions, []int{1, 3, 64}[i], err)
					}
				}
				if stop == 1 {
					perLeaf, err := built.Prove(positions)
					if err != nil {
						t.Fatal(err)
					}
					if folded := foldProofs(n, perLeaf); !bytes.Equal(folded, proof) {
						t.Fatalf("n=%d %v: fold of per-leaf paths is %d bytes, cut is %d, or they differ", n, positions, len(folded), len(proof))
					}
				}
				tuples := ph.SelectPositions(tab, positions).Tuples
				if err := verifyAnswer(row, n, stop, positions, tuples, proof); err != nil {
					t.Fatalf("n=%d stop=%d %v: honest answer refused: %v", n, stop, positions, err)
				}
				for i := range tuples {
					subs := []ph.EncryptedTuple{foreign}
					if n > 1 { // a genuine tuple of this table, from another position
						subs = append(subs, tab.Tuples[(positions[i]+1)%n])
					}
					for _, sub := range subs {
						forged := append([]ph.EncryptedTuple(nil), tuples...)
						forged[i] = sub
						if verifyAnswer(row, n, stop, positions, forged, proof) == nil {
							t.Fatalf("n=%d stop=%d %v: substituted tuple at slot %d accepted", n, stop, positions, i)
						}
					}
				}
			}
		}
	}
}

// TestExtendedTreeCutsSameProofs: the step of 64 only bites on a tree
// wider than 64 leaves.
func TestExtendedTreeCutsSameProofs(t *testing.T) {
	const n = 150
	tab := tableOf(n)
	built := Build(tab)
	rng := rand.New(rand.NewSource(1))
	for _, step := range []int{1, 3, 64} {
		tree := grown(tab, step)
		for trial := 0; trial < 40; trial++ {
			positions := randomPositions(rng, 1+rng.Intn(30), n)
			want, _ := built.ProveAnswer(positions)
			got, err := tree.ProveAnswer(positions)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("step %d, %v: proofs differ (err %v)", step, positions, err)
			}
			if err := VerifyAnswer(built.CapRow(), n, positions, ph.SelectPositions(tab, positions).Tuples, got); err != nil {
				t.Fatalf("step %d, %v: %v", step, positions, err)
			}
		}
	}
}

// TestSingleLeafIsTheRFCPath: for one position the canonical order is the
// bottom-up audit path — same hashes, same count — at every position of
// n = 1…40, promoted levels included. A cut that stops short of the root
// is the audit path's first entries, one per level below the stop where
// the node has a sibling: at the served width, at most the first c(n).
func TestSingleLeafIsTheRFCPath(t *testing.T) {
	for n := 1; n <= 40; n++ {
		tab := tableOf(n)
		tree := Build(tab)
		leaves := leavesOf(tab)
		if !bytes.Equal(tree.Root(), refRoot(leaves)) {
			t.Fatalf("n=%d: root differs from RFC 6962 MTH", n)
		}
		widths := []int{CapNodes} // the served width, then 1 (the root) to n
		for w := 1; w <= n; w++ {
			widths = append(widths, w)
		}
		for pos := 0; pos < n; pos++ {
			want := refPath(pos, leaves)
			proofs, err := tree.Prove([]int{pos})
			if err != nil {
				t.Fatal(err)
			}
			if len(proofs[0].Siblings) != len(want) {
				t.Fatalf("n=%d pos=%d: %d siblings, audit path has %d", n, pos, len(proofs[0].Siblings), len(want))
			}
			for i := range want {
				if !bytes.Equal(proofs[0].Siblings[i], want[i]) {
					t.Fatalf("n=%d pos=%d: sibling %d differs from the audit path", n, pos, i)
				}
			}
			if err := Verify(tree.Root(), n, tab.Tuples[pos], proofs[0]); err != nil {
				t.Fatalf("n=%d pos=%d: %v", n, pos, err)
			}
			for _, stop := range widths {
				k := 0 // levels below the stop where the node is not promoted
				for w, p := n, pos; w > stop; w, p = (w+1)/2, p/2 {
					if p%2 == 1 || p+1 < w {
						k++
					}
				}
				cut, err := tree.proveAnswer([]int{pos}, stop)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cut, bytes.Join(want[:k], nil)) {
					t.Fatalf("n=%d pos=%d stop=%d: the cut is not the audit path's first %d entries", n, pos, stop, k)
				}
				if err := verifyAnswer(tree.row(stop), n, stop, []int{pos}, tab.Tuples[pos:pos+1], cut); err != nil {
					t.Fatalf("n=%d pos=%d stop=%d: %v", n, pos, stop, err)
				}
			}
		}
	}
}

// encodeAnswer is the wire form of an answer with an arbitrary sibling
// block.
func encodeAnswer(tab *ph.EncryptedTable, root []byte, n int, positions []int, proof []byte) []byte {
	res := &ph.Result{Positions: positions, Tuples: tuplesAt(tab, positions)}
	return EncodeVerifiedResult(nil, &VerifiedResult{Result: res, Root: root, Leaves: n, Multiproof: proof})
}

// TestHostileMultiproof drives each way a server can bend a proof
// through the decoder and the verifier, on trees above the cap whose odd
// leaf counts promote a node at several levels below it; every case must
// end in an error that names what failed. A full-to-root proof — what a
// server cutting past the cap would send — is refused by the decoder, as
// is one sibling more or less of it, before any hashing.
func TestHostileMultiproof(t *testing.T) {
	for _, n := range []int{CapNodes + 1, 2*CapNodes + 3, 4*CapNodes + 5} {
		tab := tableOf(n)
		tree := Build(tab)
		root, row := tree.Root(), tree.CapRow()
		positions := []int{0, n - 1}
		other := []int{1, n - 1} // same size, different set
		proof, err := tree.ProveAnswer(positions)
		if err != nil {
			t.Fatal(err)
		}
		otherProof, err := tree.ProveAnswer(other)
		if err != nil {
			t.Fatal(err)
		}
		if len(proof) != len(otherProof) {
			t.Fatalf("n=%d: fixture sets need %d and %d bytes, want equal", n, len(proof), len(otherProof))
		}
		full, err := tree.proveAnswer(positions, 1)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), proof...)
		flipped[len(flipped)-1] ^= 1
		level, _ := capLevel(n, CapNodes)
		cases := []struct {
			name      string
			positions []int
			proof     []byte
			decodeErr string // non-empty: the decoder must already refuse
			verifyErr string
		}{
			{"truncated by one hash", positions, proof[:len(proof)-HashSize], "", "need exactly"},
			{"extended by one hash", positions, append(append([]byte(nil), proof...), make([]byte, HashSize)...), "", "need exactly"},
			{"flipped sibling byte", positions, flipped, "", "cap mismatch"},
			{"length not a multiple of 32", positions, proof[:len(proof)-1], "whole 32-byte hashes", "need exactly"},
			{"more hashes than positions x cap level", positions, make([]byte, (len(positions)*level+1)*HashSize), "at most", "need exactly"},
			{"siblings of another position set", positions, otherProof, "", "cap mismatch"},
			{"empty answer carrying siblings", nil, proof[:HashSize], "at most 0", "need exactly 0 siblings"},
			{"repeated position", []int{0, n - 1, n - 1}, proof, "", "strictly ascending"},
			{"descending positions", []int{n - 1, 0}, proof, "", "strictly ascending"},
			{"position at the leaf count", []int{0, n}, proof, "", "out of range"},
			{"full-to-root proof", positions, full, "at most", "need exactly"},
			{"full-to-root proof, one sibling over", positions, append(append([]byte(nil), full...), make([]byte, HashSize)...), "at most", "need exactly"},
			{"full-to-root proof, one sibling under", positions, full[:len(full)-HashSize], "at most", "need exactly"},
		}
		for _, tc := range cases {
			name := fmt.Sprintf("n=%d/%s", n, tc.name)
			_, err := DecodeVerifiedResult(wire.NewBuffer(encodeAnswer(tab, root, n, tc.positions, tc.proof)))
			if tc.decodeErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.decodeErr) {
					t.Errorf("%s: decoder: %v, want an error naming %q", name, err, tc.decodeErr)
				}
			} else if err != nil {
				t.Errorf("%s: decoder refused what only the verifier can judge: %v", name, err)
			}
			err = VerifyAnswer(row, n, tc.positions, tuplesAt(tab, tc.positions), tc.proof)
			if err == nil || !strings.Contains(err.Error(), tc.verifyErr) {
				t.Errorf("%s: verifier: %v, want an error naming %q", name, err, tc.verifyErr)
			}
		}
		// The honest answer passes both, and only against its own cap row.
		vr, err := DecodeVerifiedResult(wire.NewBuffer(encodeAnswer(tab, root, n, positions, proof)))
		if err != nil {
			t.Fatalf("n=%d: honest answer refused by the decoder: %v", n, err)
		}
		if err := VerifyAnswer(row, n, vr.Result.Positions, vr.Result.Tuples, vr.Multiproof); err != nil {
			t.Fatalf("n=%d: honest answer refused: %v", n, err)
		}
		if err := VerifyAnswer(root, n, positions, vr.Result.Tuples, proof); err == nil || !strings.Contains(err.Error(), "cap row of 32 bytes") {
			t.Fatalf("n=%d: checked against the root in place of the cap row: %v", n, err)
		}
		if err := VerifyAnswer(row, n, positions, vr.Result.Tuples[:1], proof); err == nil {
			t.Fatalf("n=%d: %d tuples at %d positions accepted", n, 1, len(positions))
		}
	}
}

// tuplesAt picks the tuples an answer at positions would carry (any
// tuple for an out-of-range position).
func tuplesAt(tab *ph.EncryptedTable, positions []int) []ph.EncryptedTuple {
	out := make([]ph.EncryptedTuple, len(positions))
	for i, p := range positions {
		out[i] = tab.Tuples[p%len(tab.Tuples)]
	}
	return out
}

// randomPositions draws k distinct positions of n, ascending.
func randomPositions(rng *rand.Rand, k, n int) []int {
	out := rng.Perm(n)[:k]
	sort.Ints(out)
	return out
}

// TestMultiproofSize gates what a verified answer ships per tuple at the
// benchmark's shape — positions scattered uniformly over 20,000 leaves,
// where a per-leaf path is 15 siblings (480 bytes before framing) and the
// cut stops at level 3, the 2,500-node cap: at most 3 siblings a tuple.
// The bounds are the measured 94 and 89 bytes with 10 % headroom.
func TestMultiproofSize(t *testing.T) {
	const n = 20_000
	tree := Build(tableOf(n))
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ k, maxPerTuple int }{{100, 103}, {400, 97}} {
		proof, err := tree.ProveAnswer(randomPositions(rng, tc.k, n))
		if err != nil {
			t.Fatal(err)
		}
		if per := len(proof) / tc.k; per > tc.maxPerTuple {
			t.Errorf("%d of %d: %d proof bytes per tuple, want <= %d", tc.k, n, per, tc.maxPerTuple)
		} else {
			t.Logf("%d of %d: %d proof bytes per tuple (%d siblings)", tc.k, n, per, len(proof)/HashSize)
		}
	}
}

// TestVerifyAnswerAllocs: verifying costs the same handful of
// allocations whatever the answer's size — the two scratch slices, not
// one per tuple, sibling or node.
func TestVerifyAnswerAllocs(t *testing.T) {
	const n = 20_000
	tab := tableOf(n)
	tree := Build(tab)
	row := tree.CapRow()
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 100, 400} {
		positions := randomPositions(rng, k, n)
		tuples := ph.SelectPositions(tab, positions).Tuples
		proof, err := tree.ProveAnswer(positions)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := VerifyAnswer(row, n, positions, tuples, proof); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("VerifyAnswer of %d tuples allocates %v objects, want <= 8", k, allocs)
		}
	}
}

// TestProveAnswerAllocs: cutting a proof is one exactly sized block,
// plus the walk's scratch when the pool has none to lend.
func TestProveAnswerAllocs(t *testing.T) {
	const n = 20_000
	tree := Build(tableOf(n))
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 100, 400} {
		positions := randomPositions(rng, k, n)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tree.ProveAnswer(positions); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("ProveAnswer of %d positions allocates %v objects, want <= 4", k, allocs)
		}
	}
}

var hashSink [HashSize]byte

// TestInteriorHashZeroAllocs: the node hash under Build, Extend, Frontier
// and VerifyAnswer builds no hash.Hash and returns by value.
func TestInteriorHashZeroAllocs(t *testing.T) {
	left, right := make([]byte, HashSize), make([]byte, HashSize)
	if allocs := testing.AllocsPerRun(200, func() { hashSink = interiorHash(left, right) }); allocs != 0 {
		t.Fatalf("interiorHash allocates %v objects, want 0", allocs)
	}
}
