package authindex

import (
	"repro/internal/ph"
)

// Frontier is the O(log n) append-only summary of a Merkle tree: the
// roots of the perfect subtrees in the binary decomposition of the leaf
// count, largest first (the "compact range" of Certificate Transparency
// folklore). Because the tree shape is the RFC 6962 split, the tree root
// is the right-to-left fold of these subtree roots under interiorHash.
//
// The client carries a Frontier instead of the whole tree: appending the
// leaf hashes of its own inserts advances the pinned root in O(log n)
// memory and O(1) amortised hashing per leaf, with no re-download of the
// table. A Frontier built over the same leaves as Build yields the
// identical root at every prefix length.
//
// A Frontier is not safe for concurrent use.
type Frontier struct {
	n     int
	roots [][]byte // perfect-subtree roots, sizes strictly descending
	sizes []int    // leaf count under roots[i]
}

// NewFrontier returns the frontier of an empty tree.
func NewFrontier() *Frontier { return &Frontier{} }

// FrontierOf builds the frontier of an encrypted table's tree.
func FrontierOf(t *ph.EncryptedTable) *Frontier {
	f := NewFrontier()
	for _, tp := range t.Tuples {
		f.AppendTuple(tp)
	}
	return f
}

// Count returns the number of leaves the frontier summarises.
func (f *Frontier) Count() int { return f.n }

// AppendTuple appends the leaf hash of one encrypted tuple.
func (f *Frontier) AppendTuple(tp ph.EncryptedTuple) { f.AppendLeaf(LeafHash(tp)) }

// AppendLeaf appends one leaf hash (as produced by LeafHash). Equal-sized
// trailing subtrees merge immediately, so the stack depth stays at the
// popcount of the leaf count.
func (f *Frontier) AppendLeaf(h []byte) {
	f.roots = append(f.roots, h)
	f.sizes = append(f.sizes, 1)
	f.n++
	for k := len(f.sizes); k >= 2 && f.sizes[k-1] == f.sizes[k-2]; k = len(f.sizes) {
		f.roots[k-2] = interiorNode(f.roots[k-2], f.roots[k-1])
		f.sizes[k-2] *= 2
		f.roots = f.roots[:k-1]
		f.sizes = f.sizes[:k-1]
	}
}

// Root returns the tree root for the current leaf count: the
// right-to-left fold of the subtree roots (a promoted odd node is the
// degenerate single-leaf case). Matches Tree.Root over the same leaves.
func (f *Frontier) Root() []byte {
	if f.n == 0 {
		return emptyRoot()
	}
	var acc [HashSize]byte
	copy(acc[:], f.roots[len(f.roots)-1])
	for i := len(f.roots) - 2; i >= 0; i-- {
		acc = interiorHash(f.roots[i], acc[:])
	}
	return append([]byte(nil), acc[:]...)
}
