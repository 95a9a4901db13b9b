package authindex

import (
	"math/bits"

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
func (f *Frontier) AppendTuple(tp ph.EncryptedTuple) { f.appendLeaf(leafHash(tp)) }

// appendLeaf appends one leaf hash.
func (f *Frontier) appendLeaf(h [HashSize]byte) {
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

// Cap is a verifier's copy of a tree's cap row (see CapNodes), kept with
// the Frontier of the same leaves and advanced with it, leaf by leaf. The
// row is the roots of the complete 2^c-leaf blocks, then the node of the
// trailing partial block, if any: the fold of the frontier's subtrees
// smaller than a block, which is what the tree's pairing with odd nodes
// promoted makes of that block. When the leaf count passes
// CapNodes × 2^c, the row of CapNodes complete blocks pairs up once into
// level c+1. The root still comes from the Frontier — nothing folds the
// row — so an append costs O(log n) hashes, and the row is at most
// CapNodes × HashSize = 128 KiB.
//
// A Cap is not safe for concurrent use.
type Cap struct {
	f     Frontier
	level int    // c(n)
	row   []byte // level c's nodes, HashSize bytes each
}

// CapOf builds the cap of an encrypted table's tree.
func CapOf(t *ph.EncryptedTable) *Cap {
	c := new(Cap)
	for _, tp := range t.Tuples {
		c.AppendTuple(tp)
	}
	return c
}

// Count returns the number of leaves the cap summarises.
func (c *Cap) Count() int { return c.f.n }

// Root returns the tree root for the current leaf count (Frontier.Root).
func (c *Cap) Root() []byte { return c.f.Root() }

// Row returns the cap row, which VerifyAnswer takes. It is the Cap's
// own: the caller must not modify it, and the next append may.
func (c *Cap) Row() []byte { return c.row }

// AppendTuple appends the leaf hash of one encrypted tuple.
func (c *Cap) AppendTuple(tp ph.EncryptedTuple) {
	if c.f.n == CapNodes<<c.level { // CapNodes complete blocks: pair them
		half := c.row[:len(c.row)/2]
		pairUp(half, c.row, 0)
		c.row = half
		c.level++
	}
	h := leafHash(tp)
	node := h
	inBlock := c.f.n & (1<<c.level - 1) // leaves before h in its block
	for i := len(c.f.roots) - 1; i >= len(c.f.roots)-bits.OnesCount(uint(inBlock)); i-- {
		node = interiorHash(c.f.roots[i][:], node[:])
	}
	if inBlock == 0 {
		c.row = append(c.row, node[:]...)
	} else {
		copy(c.row[len(c.row)-HashSize:], node[:])
	}
	c.f.appendLeaf(h)
}
