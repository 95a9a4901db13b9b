package authindex

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ph"
	"repro/internal/wire"
)

// MultiProof is the inclusion proof for one answer: the minimal set of
// sibling hashes that, together with the answer's own leaf hashes,
// recomputes the answer's nodes of the cap level once (see CapNodes). It
// is the raw HashSize-byte hashes concatenated in canonical order —
// level by level bottom-up, left to right within a level — so
// (positions, leaf count) alone determine which sibling is consumed
// where, and the proof needs neither positions nor lengths of its own.
type MultiProof []byte

// CapNodes is the widest level a served multiproof climbs to. Both sides
// derive the cap level c(n) — the lowest level of an n-leaf tree at most
// CapNodes nodes wide — from the leaf count alone, so c = 0 for
// n <= CapNodes and such an answer carries no siblings at all. The
// verifier holds that level, the cap row (Cap, Tree.CapRow), at most
// CapNodes × HashSize = 128 KiB, and compares the answer's folded nodes
// with it in place of the root. It is a format constant: a server and a
// client that disagree on it cannot check each other's answers.
const CapNodes = 4096

// capLevel is the level at which a walk over an n-leaf tree with stop
// width stop ends — the lowest level at most stop nodes wide — and that
// level's width. Stop width 1 is the root; CapNodes the served cap.
func capLevel(n, stop int) (level, width int) {
	for width = n; width > stop; width = (width + 1) / 2 {
		level++
	}
	return level, width
}

// join says how ascend forms one parent from the known nodes of a level.
type join int

const (
	joinPair  join = iota // known nodes i and i+1 are its two children
	joinLeft              // known node i is the left child, the proof supplies the right
	joinRight             // known node i is the right child, the proof supplies the left
	joinNone              // odd trailing node, promoted unchanged
)

// ascend is the package's one walk from a set of nodes up the tree. idx
// holds the strictly ascending indices of the known nodes of a level
// width nodes wide (level 0 first: the answer's positions among the
// leaves); level by level it reports how each parent is formed and
// rewrites idx in place to the parents' indices, until the level is at
// most stop nodes wide (1: the root; CapNodes: the served cap).
// visit(lvl, out, i, j) means: slot out of the next level is formed by
// join j from slot i of level lvl (slots i and i+1 for joinPair).
// out <= i, so a caller folding values in place never overwrites a slot it
// has yet to read, and idx[i] is still node i's index in level lvl while
// visit runs. ascend returns how many slots the last level has — idx[:top]
// are their indices in it — and how many siblings the walk took from a
// proof (its joinLeft and joinRight parents); a nil visit only counts.
func ascend(idx []int, width, stop int, visit func(lvl, out, i int, j join)) (top, siblings int) {
	for lvl := 0; width > stop; lvl++ {
		out := 0
		for i := 0; i < len(idx); out++ {
			p, j, step := idx[i], joinLeft, 1
			switch {
			case p&1 == 1:
				// Its left sibling is not known: a known p-1 would have
				// taken p with it as a pair.
				j = joinRight
			case p == width-1:
				j = joinNone
			case i+1 < len(idx) && idx[i+1] == p+1:
				j, step = joinPair, 2
			}
			if j == joinLeft || j == joinRight {
				siblings++
			}
			if visit != nil {
				visit(lvl, out, i, j)
			}
			idx[out] = p >> 1
			i += step
		}
		idx = idx[:out]
		width = (width + 1) / 2
	}
	return len(idx), siblings
}

// siblingsNeeded counts the hashes a proof for the positions in idx must
// carry up to stop width stop. It consumes idx.
func siblingsNeeded(idx []int, leafCount, stop int) int {
	_, siblings := ascend(idx, leafCount, stop, nil)
	return siblings
}

// checkPositions refuses a position set ascend cannot walk: out of range,
// repeated or descending. Strictness is also what stops a server listing
// one genuine tuple twice to inflate an answer's multiset.
func checkPositions(positions []int, leafCount int) error {
	for i, p := range positions {
		if p < 0 || p >= leafCount {
			return fmt.Errorf("authindex: position %d out of range [0, %d)", p, leafCount)
		}
		if i > 0 && p <= positions[i-1] {
			return fmt.Errorf("authindex: positions not strictly ascending (%d after %d) — duplicated or reordered tuples", p, positions[i-1])
		}
	}
	return nil
}

// proveScratch is ProveAnswer's working memory: ascend's slots, and the
// siblings to copy, each as its level << 48 | its index in the level.
type proveScratch struct {
	idx  []int
	sibs []uint64
}

var provePool = sync.Pool{New: func() any { return new(proveScratch) }}

// ProveAnswer cuts the multiproof for a strictly ascending position set,
// up to the cap level: only the siblings below it, none at all on a tree
// of at most CapNodes leaves.
func (t *Tree) ProveAnswer(positions []int) (MultiProof, error) {
	return t.proveAnswer(positions, CapNodes)
}

// proveAnswer cuts the multiproof up to stop width stop. One walk lists
// the siblings, which sizes the proof exactly; then a tight loop copies
// each from its level's row. The copies do not depend on each other, so
// on a tree larger than the CPU's caches their misses overlap instead of
// queueing behind the walk.
func (t *Tree) proveAnswer(positions []int, stop int) (MultiProof, error) {
	if err := checkPositions(positions, t.n); err != nil {
		return nil, err
	}
	sc := provePool.Get().(*proveScratch)
	defer provePool.Put(sc)
	// A position takes at most one sibling per level: one growth covers
	// the walk.
	idx := append(sc.idx[:0], positions...)
	sibs := slices.Grow(sc.sibs[:0], len(positions)*(len(t.levels)-1))
	ascend(idx, t.n, stop, func(lvl, _, i int, j join) {
		if j == joinLeft || j == joinRight {
			sibs = append(sibs, uint64(lvl)<<48|uint64(idx[i]^1))
		}
	})
	sc.idx, sc.sibs = idx, sibs
	proof := make(MultiProof, len(sibs)*HashSize)
	for k, s := range sibs {
		// Through a temporary, which compiles to register moves; a copy
		// between the two slices would call memmove per sibling.
		h := [HashSize]byte(t.levels[s>>48][int(s&(1<<48-1))*HashSize:])
		*(*[HashSize]byte)(proof[k*HashSize:]) = h
	}
	return proof, nil
}

// VerifyAnswer checks that tuples are the leaves at the given positions of
// the tree with the given cap row and leaf count: it folds the tuples'
// leaf hashes with the proof's siblings once, up to the cap level, and
// compares each node it reaches with the cap row's. Positions must be
// strictly ascending and in range, the cap row exactly the cap level's
// width, and the proof must carry exactly the siblings the position set
// needs — none for an empty answer, which authenticates nothing and is
// accepted as such.
func VerifyAnswer(row []byte, leafCount int, positions []int, tuples []ph.EncryptedTuple, proof MultiProof) error {
	return verifyAnswer(row, leafCount, CapNodes, positions, tuples, proof)
}

// verifyAnswer is VerifyAnswer up to stop width stop, against that
// level's row (the root alone for stop width 1).
func verifyAnswer(row []byte, leafCount, stop int, positions []int, tuples []ph.EncryptedTuple, proof MultiProof) error {
	idx := make([]int, len(positions))
	if err := checkAnswer(row, leafCount, stop, positions, tuples, proof, idx); err != nil {
		return err
	}
	if len(positions) == 0 {
		return nil
	}
	hashes := make([]byte, 0, len(positions)*HashSize)
	for _, tp := range tuples {
		hashes = AppendLeafHash(hashes, tp)
	}
	return fold(row, leafCount, stop, positions, idx, hashes, proof)
}

// checkAnswer holds an answer to the shape its position set dictates: a
// tuple per position, positions strictly ascending and in range, a cap
// row as wide as the level the walk stops at, and a proof of exactly the
// siblings they need. idx is len(positions) of scratch.
func checkAnswer(row []byte, leafCount, stop int, positions []int, tuples []ph.EncryptedTuple, proof MultiProof, idx []int) error {
	if len(tuples) != len(positions) {
		return fmt.Errorf("authindex: %d tuples at %d positions", len(tuples), len(positions))
	}
	if err := checkPositions(positions, leafCount); err != nil {
		return err
	}
	if level, width := capLevel(leafCount, stop); len(row) != width*HashSize {
		return fmt.Errorf("authindex: cap row of %d bytes, level %d of %d leaves is %d nodes (%d bytes)",
			len(row), level, leafCount, width, width*HashSize)
	}
	copy(idx, positions)
	if need := siblingsNeeded(idx, leafCount, stop); len(proof) != need*HashSize {
		return fmt.Errorf("authindex: proof carries %d bytes, %d positions of %d leaves need exactly %d siblings (%d bytes)",
			len(proof), len(positions), leafCount, need, need*HashSize)
	}
	return nil
}

// fold recomputes the answer's nodes of the cap level from a checked
// answer's leaf hashes (one per position, back to back in hashes) and the
// proof's siblings, and compares each with its node in row. It folds
// hashes in place — hashes[i*HashSize:] is the hash of the known node in
// slot i of the current level — up to the cap level. idx is
// len(positions) of scratch.
func fold(row []byte, leafCount, stop int, positions, idx []int, hashes []byte, proof MultiProof) error {
	copy(idx, positions)
	top, _ := ascend(idx, leafCount, stop, func(_, out, i int, j join) {
		at := hashes[i*HashSize:]
		var h [HashSize]byte
		switch j {
		case joinPair:
			h = interiorHash(at[:HashSize], at[HashSize:2*HashSize])
		case joinLeft:
			h = interiorHash(at[:HashSize], proof[:HashSize])
			proof = proof[HashSize:]
		case joinRight:
			h = interiorHash(proof[:HashSize], at[:HashSize])
			proof = proof[HashSize:]
		case joinNone:
			copy(h[:], at)
		}
		copy(hashes[out*HashSize:], h[:])
	})
	for i, p := range idx[:top] {
		got, want := hashes[i*HashSize:(i+1)*HashSize], row[p*HashSize:(p+1)*HashSize]
		//phlint:ignore ctcompare Merkle nodes are public commitments the server holds, not secrets
		if !bytes.Equal(got, want) {
			level, _ := capLevel(leafCount, stop)
			return fmt.Errorf("authindex: cap mismatch: node %d of level %d computed %x, want %x", p, level, got, want)
		}
	}
	return nil
}

// Proof is the inclusion proof for one leaf: the sibling hashes from the
// leaf level up to the root — the multiproof of a one-position answer cut
// with stop width 1, whose canonical order is the bottom-up path. Served
// answers carry one capped MultiProof; Proof, Prove, Verify and
// EncodeProofs remain for callers that speak about a single leaf under
// the root (E8, the benchmark's ladder).
type Proof struct {
	// Position is the leaf index the proof speaks about.
	Position int
	// Siblings are the sibling hashes, bottom-up.
	Siblings [][]byte
}

// Prove produces a single-leaf inclusion proof for each given position.
func (t *Tree) Prove(positions []int) ([]Proof, error) {
	out := make([]Proof, len(positions))
	for k := range positions {
		block, err := t.proveAnswer(positions[k:k+1], 1)
		if err != nil {
			return nil, err
		}
		sibs := make([][]byte, len(block)/HashSize)
		for i := range sibs {
			sibs[i] = block[i*HashSize : (i+1)*HashSize : (i+1)*HashSize]
		}
		out[k] = Proof{Position: positions[k], Siblings: sibs}
	}
	return out, nil
}

// Verify checks that tuple is the leaf at proof.Position of the tree with
// the given root and leaf count.
func Verify(root []byte, leafCount int, tuple ph.EncryptedTuple, proof Proof) error {
	return verifyAnswer(root, leafCount, 1, []int{proof.Position}, []ph.EncryptedTuple{tuple}, bytes.Join(proof.Siblings, nil))
}

// EncodeProofs serialises single-leaf proofs. Nothing decodes this
// layout and no answer carries it; it remains as the benchmark ladder's
// size measure of per-leaf proofs.
func EncodeProofs(dst []byte, proofs []Proof) []byte {
	dst = wire.AppendU32(dst, uint32(len(proofs)))
	for _, p := range proofs {
		dst = wire.AppendU32(dst, uint32(p.Position))
		dst = wire.AppendU32(dst, uint32(len(p.Siblings)))
		for _, s := range p.Siblings {
			dst = wire.AppendBytes(dst, s)
		}
	}
	return dst
}

// foldProofs merges the single-leaf proofs Prove returned for a strictly
// ascending position set into that set's multiproof up to the root (stop
// width 1, as the paths it merges): each sibling the
// multiproof needs is read off the path of a leaf below it. It is the one
// piece of glue between the two proof shapes — EncodeVerifiedResult uses
// it for a value that carries only per-leaf Proofs, which is what
// benchmark/ladder.go builds — and goes when the ladder is re-pointed at
// ProveAnswer (ROADMAP A′(ii)).
func foldProofs(leafCount int, proofs []Proof) MultiProof {
	idx := make([]int, len(proofs))
	// Slot i descends from leaf rep[i], whose path has given up its first
	// used[i] siblings to the levels below.
	rep := make([]int, len(proofs))
	used := make([]int, len(proofs))
	for i, p := range proofs {
		idx[i], rep[i] = p.Position, i
	}
	var proof MultiProof
	ascend(idx, leafCount, 1, func(_, out, i int, j join) {
		r, u := rep[i], used[i]
		if j == joinLeft || j == joinRight {
			proof = append(proof, proofs[r].Siblings[u]...)
		}
		if j != joinNone {
			u++
		}
		rep[out], used[out] = r, u
	})
	return proof
}
