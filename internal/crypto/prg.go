package crypto

import (
	"crypto/aes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
)

// PRG is a seekable pseudorandom generator built from AES-256 in counter
// mode. It plays the role of the stream generator G in the three
// precursor Song–Wagner–Perrig schemes (swp's variants.go): chunk i of the
// keystream can be generated independently of every other. The final
// scheme's stream is not a PRG of its own per document but CBC-MAC under
// one key (see swp.Codec).
//
// A PRG is NOT safe for concurrent use: the counter block, encrypted in
// place into keystream, lives in the struct so that BlockInto allocates
// nothing.
type PRG struct {
	aes   AES256
	block [1][aes.BlockSize]byte // the counter block, as a run of one
}

// NewPRG constructs a PRG seeded with the given key.
func NewPRG(seed Key) *PRG {
	return &PRG{aes: NewAES256(seed)}
}

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
