// Package authindex is the repository's extension beyond the paper: a
// Merkle hash tree over the encrypted tuples of a stored table, letting
// Alex verify that Eve's query answers consist of genuine, untampered
// ciphertext tuples.
//
// The paper's trust model assumes Eve follows the protocol; its
// construction protects *confidentiality* only. If Eve turns actively
// malicious she could substitute or corrupt ciphertexts. With an
// authenticated index Alex remembers only the 32-byte root of the table he
// uploaded; every answer comes with one inclusion proof for all of its
// tuples, which he checks against the root.
//
// A verified answer carries its result (positions and tuples), the root,
// leaf count and version of the snapshot it was cut from, and one
// MultiProof: the minimal set of sibling hashes that, with the answer's
// own leaf hashes, recomputes the root once. The siblings travel as raw
// 32-byte hashes in one canonical order — level by level bottom-up, left
// to right within a level; a promoted odd node contributes nothing — so
// (positions, leaf count) alone determine which sibling is consumed
// where. The proof therefore needs no positions or lengths of its own,
// and its shape tells Eve nothing she did not already choose: she picked
// the positions and she holds the tree. Tree.ProveAnswer cuts it,
// VerifyAnswer checks it, and the single-leaf Proof/Prove/Verify are the
// one-position case of the same walk (for one position the canonical
// order is the bottom-up audit path), so the package recomputes a root
// in exactly one place.
//
// The tree shape is RFC-6962-compatible: leaves in table order, each
// level pairing left-to-right with an odd trailing node promoted
// unchanged, which is exactly the recursive largest-power-of-two split of
// RFC 6962 §2.1. That equivalence is what makes the tree *incrementally
// maintainable*: appending k leaves to an n-leaf tree only touches the
// new leaves' ancestors and the old rightmost path — Tree.Extend repairs
// the level structure in O(k + log n) hashes instead of the O(n) rebuild
// Build performs — and the append-only root can equally be carried as a
// Frontier: the O(log n) stack of perfect-subtree roots (the binary
// decomposition of n) from which the root is a right-to-left fold. The
// server maintains a Tree per table (storage keeps it version-stamped
// under the table lock); the client carries only a Frontier and advances
// its pinned root from the leaf hashes of its own appends, with no
// re-download.
//
// Scope note (recorded in DESIGN.md): inclusion proofs authenticate
// *integrity* of returned tuples, not *completeness* of search results — a
// malicious server may still withhold matches. Completeness for
// searchable encryption requires different machinery (e.g. signed result
// digests per trapdoor) and is out of scope here, as it is for the paper.
package authindex

import (
	"crypto/sha256"

	"repro/internal/ph"
	"repro/internal/wire"
)

// HashSize is the node hash width.
const HashSize = sha256.Size

// domain-separation prefixes for leaf and interior hashes (second-preimage
// hardening, as in RFC 6962).
const (
	leafPrefix     = 0x00
	interiorPrefix = 0x01
)

// Tree is a Merkle tree over the tuples of one encrypted table, leaves in
// table order. Odd nodes are promoted unchanged to the next level, so the
// proof shape is fully determined by (positions, leaf count) and proofs
// can consist of bare sibling hashes.
//
// A Tree is not safe for concurrent mutation: callers interleaving Extend
// with Root/ProveAnswer must serialise externally (internal/storage does,
// under the table lock). Root and the provers hand out copies, so a proof
// taken before an Extend stays valid for the snapshot it was cut from.
type Tree struct {
	n      int        // real leaf count (0 for an empty table's sentinel tree)
	levels [][][]byte // levels[0] = leaf hashes, last level = [root]
}

// LeafHash hashes one encrypted tuple into its leaf. Every field is
// length-prefixed so the encoding is injective.
func LeafHash(t ph.EncryptedTuple) []byte {
	var enc [256]byte // a typical tuple's encoding fits; longer ones spill to the heap
	h := sha256.Sum256(appendLeaf(enc[:0], t))
	return h[:]
}

// appendLeaf appends the preimage of a tuple's leaf hash.
func appendLeaf(dst []byte, t ph.EncryptedTuple) []byte {
	dst = append(dst, leafPrefix)
	dst = wire.AppendBytes(dst, t.ID)
	dst = wire.AppendBytes(dst, t.Blob)
	dst = wire.AppendU32(dst, uint32(len(t.Words)))
	for _, w := range t.Words {
		dst = wire.AppendBytes(dst, w)
	}
	return dst
}

// interiorHash combines two child hashes. It returns an array so that a
// caller folding hashes in place (VerifyAnswer) allocates nothing; one
// that stores the node (Build, Extend, Frontier) pays the one slice.
func interiorHash(left, right []byte) [HashSize]byte {
	var buf [1 + 2*HashSize]byte
	buf[0] = interiorPrefix
	copy(buf[1:1+HashSize], left)
	copy(buf[1+HashSize:], right)
	return sha256.Sum256(buf[:])
}

// interiorNode is interiorHash as a stored tree node.
func interiorNode(left, right []byte) []byte {
	h := interiorHash(left, right)
	return h[:]
}

// Build constructs the tree for an encrypted table. An empty table yields a
// tree whose root is the hash of the empty string under the leaf prefix.
func Build(t *ph.EncryptedTable) *Tree {
	leaves := make([][]byte, len(t.Tuples))
	for i, tp := range t.Tuples {
		leaves[i] = LeafHash(tp)
	}
	return fromLeaves(leaves)
}

// emptyRoot is the root of a zero-leaf tree: the hash of the empty string
// under the leaf prefix.
func emptyRoot() []byte {
	h := sha256.Sum256([]byte{leafPrefix})
	return h[:]
}

// fromLeaves builds the level structure bottom-up.
func fromLeaves(leaves [][]byte) *Tree {
	tr := &Tree{n: len(leaves)}
	if len(leaves) == 0 {
		leaves = [][]byte{emptyRoot()}
	}
	tr.levels = [][][]byte{leaves}
	cur := leaves
	for len(cur) > 1 {
		next := make([][]byte, 0, (len(cur)+1)/2)
		for i := 0; i < len(cur); i += 2 {
			if i+1 < len(cur) {
				next = append(next, interiorNode(cur[i], cur[i+1]))
			} else {
				next = append(next, cur[i]) // odd node promoted
			}
		}
		tr.levels = append(tr.levels, next)
		cur = next
	}
	return tr
}

// Extend appends leaf hashes (LeafHash of the appended tuples, in table
// order) to the tree and repairs the level structure incrementally. Only
// the new leaves' ancestors and the old rightmost path are recomputed:
// O(k + log n) hashes for k appended leaves, against the O(n) full
// rebuild of Build. Extending the sentinel tree of an empty table
// replaces it with a real tree over the new leaves.
func (t *Tree) Extend(leaves [][]byte) {
	if len(leaves) == 0 {
		return
	}
	if t.n == 0 {
		*t = *fromLeaves(leaves)
		return
	}
	first := t.n // leftmost changed index, per level
	t.levels[0] = append(t.levels[0], leaves...)
	t.n += len(leaves)
	for lvl := 0; len(t.levels[lvl]) > 1; lvl++ {
		cur := t.levels[lvl]
		parentW := (len(cur) + 1) / 2
		if lvl+1 == len(t.levels) {
			t.levels = append(t.levels, make([][]byte, parentW))
		}
		next := t.levels[lvl+1]
		if cap(next) < parentW {
			// Grow with slack so a run of small appends reallocates each
			// level O(log growth) times, not once per Extend.
			grown := make([][]byte, parentW, parentW+parentW/2+8)
			copy(grown, next)
			next = grown
		} else {
			next = next[:parentW]
		}
		// Repair from the parent of the leftmost changed node: when first
		// is odd this also re-hashes the pair whose left half was
		// previously a promoted odd node.
		for j := first / 2; j < parentW; j++ {
			if 2*j+1 < len(cur) {
				next[j] = interiorNode(cur[2*j], cur[2*j+1])
			} else {
				next[j] = cur[2*j] // odd node promoted
			}
		}
		t.levels[lvl+1] = next
		first /= 2
	}
}

// Root returns the 32-byte tree root.
func (t *Tree) Root() []byte {
	top := t.levels[len(t.levels)-1]
	return append([]byte(nil), top[0]...)
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return len(t.levels[0]) }
