package crypto

import (
	"crypto/aes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
)

// PRG is a seekable pseudorandom generator built from AES-256 in counter
// mode. It plays the role of the stream generator G in the Song–Wagner–
// Perrig scheme: chunk i of the keystream can be generated independently
// of every other (needed because decryption must regenerate the stream
// value S_i for arbitrary word positions).
//
// Its AES is an AES256 value, and Rekey expands a new seed in place: on
// the AES-NI path a PRG moved from seed to seed allocates nothing; under
// FIPS 140-3 mode, purego and on other architectures each seed is one
// crypto/aes cipher (see AES256).
//
// A PRG is NOT safe for concurrent use: the counter block, encrypted in
// place into keystream, lives in the struct so that BlockInto allocates
// nothing. The zero PRG has no seed until Rekey.
type PRG struct {
	aes   AES256
	block [1][aes.BlockSize]byte // the counter block, as a run of one
}

// NewPRG constructs a PRG seeded with the given key.
func NewPRG(seed Key) *PRG {
	g := &PRG{}
	g.Rekey(seed)
	return g
}

// Rekey re-seeds the generator in place, so a caller that moves one PRG
// from seed to seed (swp.Codec, document to document) pays only the new
// key expansion.
func (g *PRG) Rekey(seed Key) { g.aes.Rekey(seed) }

// BlockInto fills dst with the chunk of len(dst) pseudorandom bytes at
// logical index i, without allocating. Chunks at distinct indices are
// computed from disjoint counter ranges, so chunk i never overlaps chunk
// j != i as long as the chunk length is the same across calls for a given
// PRG, which is how internal/swp uses it (the per-scheme stream width).
func (g *PRG) BlockInto(dst []byte, i uint64) {
	nBlocks := uint64((len(dst) + aes.BlockSize - 1) / aes.BlockSize)
	for b := i * nBlocks; len(dst) > 0; b++ {
		g.block[0] = [aes.BlockSize]byte{}
		binary.BigEndian.PutUint64(g.block[0][8:], b)
		g.aes.EncryptBlocks(g.block[:])
		dst = dst[copy(dst, g.block[0][:]):]
	}
}

// Block returns the chunk of n pseudorandom bytes at logical index i in a
// fresh slice.
func (g *PRG) Block(i uint64, n int) []byte {
	out := make([]byte, n)
	g.BlockInto(out, i)
	return out
}

// RandomKey draws a fresh uniformly random key from crypto/rand.
func RandomKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypto: drawing random key: %w", err)
	}
	return k, nil
}

// RandomBytes draws n uniformly random bytes from crypto/rand.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("crypto: drawing random bytes: %w", err)
	}
	return b, nil
}
