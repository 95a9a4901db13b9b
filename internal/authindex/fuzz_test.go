package authindex

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzDecodeProofsVerify drives attacker-controlled bytes through the
// verified-answer decoder and the multiproof verifier: whatever
// DecodeVerifiedResult accepts must never panic VerifyAnswer, must never
// allocate beyond the remaining payload for a lying declared length, and
// — the soundness property — must only verify when its tuples are the
// tree's own at strictly ascending in-range positions and its sibling
// block is byte for byte the honest proof for that position set. (The
// name predates the multiproof; the test floor lists it and its seeds.)
func FuzzDecodeProofsVerify(f *testing.F) {
	// Honest answers at odd and even leaf counts seed the corpus, plus
	// targeted mutants: truncated, extended and flipped sibling blocks,
	// lengths off the hash grid, another set's siblings, an empty answer
	// carrying siblings, bad position sets, a substituted tuple.
	for _, n := range []int{1, 2, 3, 5, 8, 9, 16, 17, 33} {
		tab := tableOf(n)
		tree := Build(tab)
		root := tree.Root()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		f.Add(encodeAnswer(tab, root, n, all, nil), uint16(n-1))
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
		add := func(positions []int, proof []byte) {
			f.Add(encodeAnswer(tab, root, n, positions, proof), uint16(n-1))
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
		// A genuine tuple of the table served at a position it is not at.
		swapped := encodeAnswer(tab, root, n, positions, proof)
		f.Add(bytes.Replace(swapped, tab.Tuples[0].Blob, tab.Tuples[n-1].Blob, 1), uint16(n-1))
	}
	// Hostile declared lengths over tiny payloads.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(8))
	empty := wire.AppendU64(wire.AppendU32(wire.AppendBytes(wire.AppendU32(wire.AppendU32(nil, 0), 0), make([]byte, HashSize)), 8), 1)
	f.Add(wire.AppendU32(empty, 0xFFFFFFFF), uint16(8))
	f.Add(wire.AppendU32(empty, 0), uint16(8))
	f.Add([]byte{}, uint16(8))

	f.Fuzz(func(t *testing.T, data []byte, leafRaw uint16) {
		n := int(leafRaw)%40 + 1
		tab := tableOf(n)
		tree := Build(tab)
		root := tree.Root()

		vr, err := DecodeVerifiedResult(wire.NewBuffer(data))
		if err != nil {
			return // malformed encodings must be rejected, never panic
		}
		if len(vr.Multiproof) > len(data) {
			t.Fatalf("decoded %d proof bytes out of a %d-byte payload", len(vr.Multiproof), len(data))
		}
		positions, tuples := vr.Result.Positions, vr.Result.Tuples
		err = VerifyAnswer(root, n, positions, tuples, vr.Multiproof)
		// Soundness: a decoded answer may only verify if it is exactly the
		// honest one for its position set.
		honest, herr := tree.ProveAnswer(positions)
		genuine := herr == nil && len(tuples) == len(positions) && bytes.Equal(vr.Multiproof, honest)
		for i := 0; genuine && i < len(tuples); i++ {
			genuine = bytes.Equal(LeafHash(tuples[i]), tree.levels[0][positions[i]])
		}
		if genuine && err != nil {
			t.Fatalf("honest answer at %v of %d leaves rejected: %v", positions, n, err)
		}
		if !genuine && err == nil {
			t.Fatalf("forged answer at %v of %d leaves accepted (%d proof bytes, honest %d, prover: %v)", positions, n, len(vr.Multiproof), len(honest), herr)
		}
	})
}
