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
// The roots are held by value, so appending a leaf and merging subtrees
// allocates no node; only the root stack itself grows, O(log n) times.
//
// A Frontier is not safe for concurrent use.
type Frontier struct {
	n     int
	roots [][HashSize]byte // perfect-subtree roots, one per set bit of n, largest first
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

// AppendTuple appends the leaf hash of one encrypted tuple. Equal-sized
// trailing subtrees merge first — one merge per trailing one bit of the
// old count — so the stack depth stays at the popcount of the leaf count.
func (f *Frontier) AppendTuple(tp ph.EncryptedTuple) {
	h := leafHash(tp)
	for m := f.n; m&1 == 1; m >>= 1 {
		last := len(f.roots) - 1
		h = interiorHash(f.roots[last][:], h[:])
		f.roots = f.roots[:last]
	}
	f.roots = append(f.roots, h)
	f.n++
}

// Root returns the tree root for the current leaf count: the
// right-to-left fold of the subtree roots (a promoted odd node is the
// degenerate single-leaf case). Matches Tree.Root over the same leaves.
func (f *Frontier) Root() []byte {
	if f.n == 0 {
		return emptyRoot()
	}
	acc := f.roots[len(f.roots)-1]
	for i := len(f.roots) - 2; i >= 0; i-- {
		acc = interiorHash(f.roots[i][:], acc[:])
	}
	return append([]byte(nil), acc[:]...)
}
