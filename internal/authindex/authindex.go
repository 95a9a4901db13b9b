// Package authindex is the repository's extension beyond the paper: a
// Merkle hash tree over the encrypted tuples of a stored table, letting
// Alex verify that Eve's query answers consist of genuine, untampered
// ciphertext tuples.
//
// The paper's trust model assumes Eve follows the protocol; its
// construction protects *confidentiality* only. If Eve turns actively
// malicious she could substitute or corrupt ciphertexts. With an
// authenticated index Alex persists only the 32-byte root of the table he
// uploaded. Beside it he holds the tree's cap row — its first level of at
// most CapNodes nodes, at most 128 KiB, which he hashes from his own
// upload or rebuilds from one fetch checked against the root — and every
// answer comes with one inclusion proof for all of its tuples, which he
// folds up to that level and checks against the cap row.
//
// A verified answer carries its result (positions and tuples), the root,
// leaf count and version of the snapshot it was cut from, and one
// MultiProof: the minimal set of sibling hashes that, with the answer's
// own leaf hashes, recomputes the answer's nodes of the cap level once —
// none at all on a tree of at most CapNodes leaves. The siblings travel
// as raw 32-byte hashes in one canonical order — level by level
// bottom-up, left to right within a level; a promoted odd node
// contributes nothing — so (positions, leaf count) alone determine which
// sibling is consumed where. The proof therefore needs no positions or lengths of its own,
// and its shape tells Eve nothing she did not already choose: she picked
// the positions and she holds the tree. Tree.ProveAnswer cuts it,
// VerifyAnswer checks it, and the single-leaf Proof/Prove/Verify are the
// one-position case of the same walk carried up to the root (for one
// position the canonical order is the bottom-up audit path), so the
// package folds a proof in exactly one place.
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
// under the table lock); the client carries only a Cap — a Frontier and
// the cap row — and advances its pinned root and row from the leaf hashes
// of its own appends, with no re-download.
//
// Memory is laid out for the hot paths. A Tree holds each level as one
// flat buffer of 32-byte hashes, so a node is its hash and nothing else,
// ProveAnswer copies siblings out of contiguous rows, and ExtendFlat
// takes appended leaf hashes as one buffer. A Frontier holds its subtree
// roots by value. The client pairs each pinned root with a LeafCache of
// the leaves answers have verified under it, so a repeated answer is
// checked by its leaf hashes without a fold; the cache is sound only for
// roots the client derives from that pin by its own appends (see
// LeafCache).
//
// Scope note (recorded in DESIGN.md): inclusion proofs authenticate
// *integrity* of returned tuples, not *completeness* of search results — a
// malicious server may still withhold matches. Completeness for
// searchable encryption requires different machinery (e.g. signed result
// digests per trapdoor) and is out of scope here, as it is for the paper.
package authindex

import (
	"bytes"
	"crypto/sha256"
	"math/bits"
	"slices"

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
// Each level is one flat buffer: node i of level l is
// levels[l][i*HashSize : (i+1)*HashSize]. A node costs its 32 bytes and
// nothing else — no slice header, no heap object of its own — and a
// proof's siblings are copied out of contiguous rows.
//
// A Tree is not safe for concurrent mutation: callers interleaving Extend
// with Root/ProveAnswer must serialise externally (internal/storage does,
// under the table lock). Root and the provers hand out copies, so a proof
// taken before an Extend stays valid for the snapshot it was cut from.
type Tree struct {
	n      int      // real leaf count (0 for an empty table's sentinel tree)
	levels [][]byte // levels[0] = leaf hashes, last level = the root alone
}

// LeafHash hashes one encrypted tuple into its leaf. Every field is
// length-prefixed so the encoding is injective.
func LeafHash(t ph.EncryptedTuple) []byte { return AppendLeafHash(nil, t) }

// AppendLeafHash appends the leaf hash of one encrypted tuple to dst, so
// a caller hashing many tuples fills one buffer.
func AppendLeafHash(dst []byte, t ph.EncryptedTuple) []byte {
	h := leafHash(t)
	return append(dst, h[:]...)
}

// leafHash is the leaf hash by value.
func leafHash(t ph.EncryptedTuple) [HashSize]byte {
	var enc [256]byte // a typical tuple's encoding fits; longer ones spill to the heap
	return sha256.Sum256(appendLeaf(enc[:0], t))
}

// appendLeaf appends the preimage of a tuple's leaf hash. It keeps a
// length before every field, although the wire and the log say a tuple
// run's shape once: the preimage must be injective on its own, and
// keeping it keeps every root and proof byte.
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

// interiorHash combines two child hashes. It returns an array so that no
// caller — a fold in place, a flat level, a Frontier — allocates a node.
func interiorHash(left, right []byte) [HashSize]byte {
	var buf [1 + 2*HashSize]byte
	buf[0] = interiorPrefix
	copy(buf[1:1+HashSize], left)
	copy(buf[1+HashSize:], right)
	return sha256.Sum256(buf[:])
}

// Build constructs the tree for an encrypted table. An empty table yields a
// tree whose root is the hash of the empty string under the leaf prefix.
func Build(t *ph.EncryptedTable) *Tree {
	leaves := make([]byte, 0, len(t.Tuples)*HashSize)
	for _, tp := range t.Tuples {
		leaves = AppendLeafHash(leaves, tp)
	}
	return BuildLeaves(leaves)
}

// emptyRoot is the root of a zero-leaf tree: the hash of the empty string
// under the leaf prefix.
func emptyRoot() []byte {
	h := sha256.Sum256([]byte{leafPrefix})
	return h[:]
}

// BuildLeaves builds the level structure bottom-up over a flat buffer of
// leaf hashes — LeafHash of each tuple, in table order — which the tree
// keeps as its level 0.
func BuildLeaves(leaves []byte) *Tree {
	tr := &Tree{n: len(leaves) / HashSize}
	if tr.n == 0 {
		leaves = emptyRoot()
	}
	tr.levels = make([][]byte, 1, bits.Len(uint(tr.n))+1)
	tr.levels[0] = leaves
	for cur := leaves; len(cur) > HashSize; {
		next := make([]byte, (len(cur)/HashSize+1)/2*HashSize)
		pairUp(next, cur, 0)
		tr.levels = append(tr.levels, next)
		cur = next
	}
	return tr
}

// pairUp writes into next, from node from on, the parents of the level
// cur: each pair hashed, an odd trailing node promoted unchanged.
func pairUp(next, cur []byte, from int) {
	for j := from * HashSize; j < len(next); j += HashSize {
		l := 2 * j
		if r := l + HashSize; r < len(cur) {
			h := interiorHash(cur[l:r], cur[r:r+HashSize])
			copy(next[j:], h[:])
		} else {
			copy(next[j:j+HashSize], cur[l:]) // odd node promoted
		}
	}
}

// Extend appends leaf hashes given one slice per leaf. It is ExtendFlat
// over their concatenation, kept for callers that hold leaves that way.
func (t *Tree) Extend(leaves [][]byte) { t.ExtendFlat(bytes.Join(leaves, nil)) }

// ExtendFlat appends leaf hashes (LeafHash of the appended tuples, in
// table order, back to back in one buffer) to the tree and repairs the
// level structure incrementally. Only the new leaves' ancestors and the
// old rightmost path are recomputed: O(k + log n) hashes for k appended
// leaves, against the O(n) full rebuild of Build. Extending the sentinel
// tree of an empty table replaces it with a real tree over the new
// leaves. The tree copies the hashes; the caller keeps its buffer.
func (t *Tree) ExtendFlat(hashes []byte) {
	if len(hashes) == 0 {
		return
	}
	if t.n == 0 {
		*t = *BuildLeaves(bytes.Clone(hashes))
		return
	}
	first := t.n // leftmost changed node, per level
	t.levels[0] = append(t.levels[0], hashes...)
	t.n += len(hashes) / HashSize
	for lvl := 0; len(t.levels[lvl]) > HashSize; lvl++ {
		cur := t.levels[lvl]
		if lvl+1 == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		// Grown by append's rule, so a run of small appends reallocates
		// each level O(log growth) times, not once per Extend.
		next := t.levels[lvl+1]
		width := (len(cur)/HashSize + 1) / 2 * HashSize
		next = slices.Grow(next, width-len(next))[:width]
		// Repair from the parent of the leftmost changed node: when first
		// is odd this also re-hashes the pair whose left half was
		// previously a promoted odd node.
		pairUp(next, cur, first/2)
		t.levels[lvl+1] = next
		first /= 2
	}
}

// Root returns the 32-byte tree root.
func (t *Tree) Root() []byte {
	return bytes.Clone(t.levels[len(t.levels)-1])
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return len(t.levels[0]) / HashSize }

// CapRow returns a copy of the tree's cap row: its level c(n), the
// lowest at most CapNodes nodes wide, which served multiproofs climb to
// (empty for an empty table). A Cap over the same leaves holds the same
// bytes.
func (t *Tree) CapRow() []byte { return bytes.Clone(t.row(CapNodes)) }

// row is the tree's level a walk with stop width stop ends at, not
// copied.
func (t *Tree) row(stop int) []byte {
	if t.n == 0 {
		return nil
	}
	level, _ := capLevel(t.n, stop)
	return t.levels[level]
}
