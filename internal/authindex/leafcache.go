package authindex

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"repro/internal/ph"
)

// LeafCacheCap is the most leaf hashes one LeafCache holds. A cache about
// to grow past it is emptied first.
const LeafCacheCap = 1 << 16

// LeafCache is a verifier's memory of leaves it has already verified: a
// bounded map from position to leaf hash, filled only by answers whose
// multiproof folded up to the cap row they were checked against. Its
// VerifyAnswer stops at data already verified (Gassend et al., "Caches
// and Hash Trees for Efficient Memory Integrity Verification", HPCA
// 2003), at leaf granularity: an answer whose every leaf is cached is
// accepted on its leaf hashes alone, with no fold.
//
// The trust argument is the caller's to keep. A leaf of an append-only
// tree never changes, so a leaf verified under one root holds under
// every root the caller derives from it by its own appends. A cache must
// therefore start empty under any root the caller did not derive itself;
// a client keeps one per pinned root and replaces it on every repin.
//
// A LeafCache is not safe for concurrent use.
type LeafCache struct {
	leaves map[uint32][HashSize]byte
	idx    []int  // scratch: ascend's slots
	hashes []byte // scratch: the answer's leaf hashes
	work   []byte // scratch: the same, folded in place
}

// NewLeafCache returns an empty cache.
func NewLeafCache() *LeafCache {
	return &LeafCache{leaves: make(map[uint32][HashSize]byte)}
}

// Len reports how many leaf hashes the cache holds.
func (c *LeafCache) Len() int { return len(c.leaves) }

// VerifyAnswer is VerifyAnswer through the cache. The answer's shape is
// checked as VerifyAnswer checks it — a tuple per position, positions
// strictly ascending and in range, exactly the siblings they need — and
// its tuples are hashed into leaves, which binds their bytes. Then:
//   - a leaf whose hash differs from the one cached at its position
//     refuses the answer;
//   - if every leaf is cached, the answer is accepted without a fold:
//     the siblings were counted, not hashed, and each tuple is
//     authenticated by its cached leaf;
//   - otherwise the answer is folded up to the cap level exactly as
//     VerifyAnswer folds it, and only an answer whose nodes match row
//     caches its leaves.
func (c *LeafCache) VerifyAnswer(row []byte, leafCount int, positions []int, tuples []ph.EncryptedTuple, proof MultiProof) error {
	if uint64(leafCount) > math.MaxUint32 { // positions key the map as uint32
		return VerifyAnswer(row, leafCount, positions, tuples, proof)
	}
	k := len(positions)
	c.idx = slices.Grow(c.idx[:0], k)[:k]
	if err := checkAnswer(row, leafCount, CapNodes, positions, tuples, proof, c.idx); err != nil {
		return err
	}
	c.hashes = c.hashes[:0]
	for _, tp := range tuples {
		c.hashes = AppendLeafHash(c.hashes, tp)
	}
	misses := 0
	for i, p := range positions {
		cached, ok := c.leaves[uint32(p)]
		if !ok {
			misses++
			continue
		}
		//phlint:ignore ctcompare leaf hashes are public: the server holds every one of them
		if leaf := c.hashes[i*HashSize : (i+1)*HashSize]; !bytes.Equal(leaf, cached[:]) {
			return fmt.Errorf("authindex: leaf %d hashes to %x, verified earlier as %x", p, leaf, cached)
		}
	}
	if misses == 0 {
		return nil
	}
	c.work = append(c.work[:0], c.hashes...)
	if err := fold(row, leafCount, CapNodes, positions, c.idx, c.work, proof); err != nil {
		return err
	}
	if len(c.leaves)+misses > LeafCacheCap {
		clear(c.leaves)
	}
	if k <= LeafCacheCap {
		for i, p := range positions {
			c.leaves[uint32(p)] = [HashSize]byte(c.hashes[i*HashSize:])
		}
	}
	return nil
}
