package crypto

import (
	"crypto/aes"
	"crypto/cipher"
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
// A PRG is NOT safe for concurrent use: the counter and keystream blocks
// live in the struct so that BlockInto allocates nothing (a local handed
// to cipher.Block escapes). The zero PRG has no seed until Rekey.
type PRG struct {
	block    cipher.Block
	ctr, out [aes.BlockSize]byte
}

// NewPRG constructs a PRG seeded with the given key.
func NewPRG(seed Key) (*PRG, error) {
	g := &PRG{}
	if err := g.Rekey(seed); err != nil {
		return nil, err
	}
	return g, nil
}

// Rekey re-seeds the generator in place, so a caller that moves one PRG
// from seed to seed (swp.Codec, document to document) pays only the new
// key schedule.
func (g *PRG) Rekey(seed Key) error {
	b, err := aes.NewCipher(seed[:])
	if err != nil {
		return fmt.Errorf("crypto: prg: %w", err)
	}
	g.block = b
	return nil
}

// BlockInto fills dst with the chunk of len(dst) pseudorandom bytes at
// logical index i, without allocating. Chunks at distinct indices are
// computed from disjoint counter ranges, so chunk i never overlaps chunk
// j != i as long as the chunk length is the same across calls for a given
// PRG, which is how internal/swp uses it (the per-scheme stream width).
func (g *PRG) BlockInto(dst []byte, i uint64) {
	nBlocks := uint64((len(dst) + aes.BlockSize - 1) / aes.BlockSize)
	for b := i * nBlocks; len(dst) > 0; b++ {
		binary.BigEndian.PutUint64(g.ctr[8:], b)
		g.block.Encrypt(g.out[:], g.ctr[:])
		dst = dst[copy(dst, g.out[:]):]
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
