package authindex

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/ph"
	"repro/internal/wire"
)

func tableOf(n int) *ph.EncryptedTable {
	t := &ph.EncryptedTable{SchemeID: "x"}
	for i := 0; i < n; i++ {
		t.Tuples = append(t.Tuples, ph.EncryptedTuple{
			ID:    []byte{byte(i), byte(i >> 8)},
			Blob:  []byte{0xB0, byte(i)},
			Words: [][]byte{{0xA0, byte(i)}, {0xA1, byte(i)}},
		})
	}
	return t
}

func TestAllPositionsVerifyAllSizes(t *testing.T) {
	// Odd and even leaf counts exercise the promoted-node logic.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33} {
		tab := tableOf(n)
		tree := Build(tab)
		root := tree.Root()
		positions := make([]int, n)
		for i := range positions {
			positions[i] = i
		}
		proofs, err := tree.Prove(positions)
		if err != nil {
			t.Fatalf("n=%d: Prove: %v", n, err)
		}
		for i, p := range proofs {
			if err := Verify(root, n, tab.Tuples[i], p); err != nil {
				t.Fatalf("n=%d position %d: %v", n, i, err)
			}
		}
	}
}

func TestTamperedTupleFails(t *testing.T) {
	tab := tableOf(10)
	tree := Build(tab)
	root := tree.Root()
	proofs, err := tree.Prove([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate each field in turn; all must be caught.
	mutations := []func(*ph.EncryptedTuple){
		func(tp *ph.EncryptedTuple) { tp.ID[0] ^= 1 },
		func(tp *ph.EncryptedTuple) { tp.Blob[0] ^= 1 },
		func(tp *ph.EncryptedTuple) { tp.Words[0][0] ^= 1 },
		func(tp *ph.EncryptedTuple) { tp.Words = tp.Words[:1] },
		func(tp *ph.EncryptedTuple) { tp.Words = append(tp.Words, []byte{9}) },
	}
	for i, mutate := range mutations {
		cp := tab.Clone().Tuples[4]
		mutate(&cp)
		if err := Verify(root, 10, cp, proofs[0]); err == nil {
			t.Fatalf("mutation %d not detected", i)
		}
	}
}

func TestWrongPositionFails(t *testing.T) {
	tab := tableOf(8)
	tree := Build(tab)
	root := tree.Root()
	proofs, _ := tree.Prove([]int{2})
	// Using tuple 3 with tuple 2's proof must fail.
	if err := Verify(root, 8, tab.Tuples[3], proofs[0]); err == nil {
		t.Fatal("substituted tuple passed verification")
	}
	// Claiming a different position with the same proof must fail.
	p := proofs[0]
	p.Position = 3
	if err := Verify(root, 8, tab.Tuples[2], p); err == nil {
		t.Fatal("relocated proof passed verification")
	}
}

func TestWrongRootFails(t *testing.T) {
	tab := tableOf(5)
	tree := Build(tab)
	proofs, _ := tree.Prove([]int{0})
	badRoot := bytes.Clone(tree.Root())
	badRoot[0] ^= 1
	if err := Verify(badRoot, 5, tab.Tuples[0], proofs[0]); err == nil {
		t.Fatal("wrong root accepted")
	}
}

func TestProofLengthChecks(t *testing.T) {
	tab := tableOf(8)
	tree := Build(tab)
	root := tree.Root()
	proofs, _ := tree.Prove([]int{0})
	short := Proof{Position: 0, Siblings: proofs[0].Siblings[:1]}
	if err := Verify(root, 8, tab.Tuples[0], short); err == nil {
		t.Fatal("short proof accepted")
	}
	long := Proof{Position: 0, Siblings: append(append([][]byte{}, proofs[0].Siblings...), make([]byte, HashSize))}
	if err := Verify(root, 8, tab.Tuples[0], long); err == nil {
		t.Fatal("over-long proof accepted")
	}
	bad := Proof{Position: 0, Siblings: [][]byte{{1, 2, 3}}}
	if err := Verify(root, 8, tab.Tuples[0], bad); err == nil {
		t.Fatal("malformed sibling accepted")
	}
}

func TestProveValidation(t *testing.T) {
	tree := Build(tableOf(3))
	if _, err := tree.Prove([]int{3}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if _, err := tree.Prove([]int{-1}); err == nil {
		t.Fatal("negative position accepted")
	}
}

func TestVerifyPositionRange(t *testing.T) {
	tab := tableOf(4)
	tree := Build(tab)
	proofs, _ := tree.Prove([]int{0})
	if err := Verify(tree.Root(), 4, tab.Tuples[0], Proof{Position: 9, Siblings: proofs[0].Siblings}); err == nil {
		t.Fatal("position beyond leaf count accepted")
	}
}

func TestEmptyTable(t *testing.T) {
	tree := Build(&ph.EncryptedTable{})
	if len(tree.Root()) != HashSize {
		t.Fatal("empty tree has no root")
	}
	if tree.LeafCount() != 1 {
		t.Fatalf("empty tree leaf count = %d", tree.LeafCount())
	}
}

func TestRootChangesWithContent(t *testing.T) {
	a := Build(tableOf(4)).Root()
	tab := tableOf(4)
	tab.Tuples[2].Blob[1] ^= 1
	b := Build(tab).Root()
	if bytes.Equal(a, b) {
		t.Fatal("root identical after content change")
	}
}

func TestLeafHashInjectiveAcrossFieldBoundaries(t *testing.T) {
	a := ph.EncryptedTuple{ID: []byte("ab"), Blob: []byte("c")}
	b := ph.EncryptedTuple{ID: []byte("a"), Blob: []byte("bc")}
	if bytes.Equal(LeafHash(a), LeafHash(b)) {
		t.Fatal("LeafHash not injective across ID/Blob boundary")
	}
	c := ph.EncryptedTuple{Words: [][]byte{[]byte("xy")}}
	d := ph.EncryptedTuple{Words: [][]byte{[]byte("x"), []byte("y")}}
	if bytes.Equal(LeafHash(c), LeafHash(d)) {
		t.Fatal("LeafHash not injective across word boundaries")
	}
	// The leaf preimage frames each field with its own length, whatever
	// the wire and the log do with a tuple run: a known leaf and root
	// pin it, so no change to the tuple codec moves a root or a proof.
	tab := tableOf(5)
	if got := hex.EncodeToString(LeafHash(tab.Tuples[3])); got != "010e90942068a746a27072d8d597665f5e312c6da609267299f3994a94f1625e" {
		t.Fatalf("leaf hash of tableOf(5)[3] = %s", got)
	}
	if got := hex.EncodeToString(Build(tab).Root()); got != "3ed21ba69d343dfae90b2f20a24f9cc422ad2a5e6bcb40f66be2e441c4ef50a4" {
		t.Fatalf("root of tableOf(5) = %s", got)
	}
}

// TestProofCodecRoundTrip: the fold of the per-leaf proofs for a position
// set is on the wire the same bytes as that set's cut up to the root, and
// decoding a served answer yields its block, cut at the cap, and never
// per-leaf proofs.
func TestProofCodecRoundTrip(t *testing.T) {
	const n = CapNodes + 9
	tab := tableOf(n)
	tree := Build(tab)
	positions := []int{0, 4, n - 1}
	toRoot, err := tree.proveAnswer(positions, 1)
	if err != nil {
		t.Fatal(err)
	}
	perLeaf, err := tree.Prove(positions)
	if err != nil {
		t.Fatal(err)
	}
	res := ph.SelectPositions(tab, positions)
	direct := EncodeVerifiedResult(nil, &VerifiedResult{Result: res, Root: tree.Root(), Leaves: n, Multiproof: toRoot})
	folded := EncodeVerifiedResult(nil, &VerifiedResult{Result: res, Root: tree.Root(), Leaves: n, Proofs: perLeaf})
	if !bytes.Equal(direct, folded) {
		t.Fatal("folded per-leaf proofs encode differently from the cut to the root")
	}
	proof, err := tree.ProveAnswer(positions)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeVerifiedResult(wire.NewBuffer(EncodeVerifiedResult(nil, &VerifiedResult{Result: res, Root: tree.Root(), Leaves: n, Multiproof: proof})))
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) == 0 || !bytes.Equal(out.Multiproof, proof) || out.Proofs != nil {
		t.Fatalf("decoded %d proof bytes and %d per-leaf proofs, want %d and none", len(out.Multiproof), len(out.Proofs), len(proof))
	}
}

func TestVerifyProperty(t *testing.T) {
	// Property: for random table sizes and positions, honest proofs
	// verify and a flipped leaf byte fails.
	f := func(sz uint8, posRaw uint8, flip uint8) bool {
		n := int(sz%40) + 1
		pos := int(posRaw) % n
		tab := tableOf(n)
		tree := Build(tab)
		proofs, err := tree.Prove([]int{pos})
		if err != nil {
			return false
		}
		if Verify(tree.Root(), n, tab.Tuples[pos], proofs[0]) != nil {
			return false
		}
		bad := tab.Clone().Tuples[pos]
		bad.ID[int(flip)%len(bad.ID)] ^= 1
		return Verify(tree.Root(), n, bad, proofs[0]) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
