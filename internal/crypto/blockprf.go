package crypto

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
)

// BlockPRFSize is the widest output a BlockPRF produces: one AES block.
const BlockPRFSize = aes.BlockSize

// BlockPRF is a fixed-input-length pseudorandom function built on AES-256:
// plain CBC-MAC over the zero-padded input, output truncated to the
// caller's width. An input of at most one block costs exactly one AES
// call, ⌈len/16⌉ in general. It instantiates the checksum function F of
// Song–Wagner–Perrig, whose input is always the fixed-width stream chunk
// S_i — which is exactly the case where raw CBC-MAC is a PRF (Bellare,
// Kilian, Rogaway): it assumes only that AES-256 is a pseudorandom
// permutation plus the PRP/PRF switching lemma. The input length is
// therefore part of the instance, and a SumInto of any other length is a
// bug, not an input: zero padding would let inputs of different lengths
// collide.
//
// SumAllInto evaluates it on k inputs at once: the k chains advance
// together, each chaining step one AES256.EncryptBlocks call over all k
// blocks, so a batch runs at AES's throughput rather than its latency.
// SumInto is its k = 1 case. swp.Matcher advances the same chains over a
// scan's run of cipherwords, in its own blocks and on its own AES256.
//
// Its AES is an AES256 value held in the struct, so NewBlockPRF and Rekey
// expand the key in place: on the AES-NI path neither allocates, and
// under FIPS 140-3 mode, purego and on other architectures each key is one
// crypto/aes cipher (see AES256).
//
// A BlockPRF is NOT safe for concurrent use (the chaining blocks live in
// the struct so that a call performs no heap allocation once they have
// grown to its batch); Clone hands each goroutine its own, with a copy of
// the key schedule. It is a value so that a caller who evaluates it side
// by side with other goroutines can place it — and with it the chaining
// block every call rewrites — on memory of its own choosing.
type BlockPRF struct {
	aes      AES256
	inputLen int
	state    [2][BlockPRFSize]byte // the chaining blocks of a call on up to two inputs (f's k_i is two tags)
	many     [][BlockPRFSize]byte  // the chaining blocks of a batch, grown to the largest met
}

// NewBlockPRF builds the PRF for one key and one input length.
func NewBlockPRF(key Key, inputLen int) BlockPRF {
	f := BlockPRF{inputLen: inputLen}
	f.aes.Rekey(key)
	return f
}

// Rekey re-keys the PRF in place, keeping its input length: a caller that
// moves one F from key to key (swp.Codec's word memo, from k_i to k_i)
// pays only the key expansion.
func (f *BlockPRF) Rekey(key Key) { f.aes.Rekey(key) }

// Clone returns an independent evaluator of the same function.
func (f *BlockPRF) Clone() BlockPRF {
	return BlockPRF{aes: f.aes, inputLen: f.inputLen}
}

// SumInto writes the first len(dst) <= BlockPRFSize bytes of the PRF of
// input into dst, without allocating: SumAllInto on one input.
func (f *BlockPRF) SumInto(dst, input []byte) { f.SumAllInto(dst, input, 1) }

// SumAllInto evaluates the PRF on the k inputs packed back to back in in,
// the instance's input length apiece, and writes the first w <=
// BlockPRFSize bytes of output i to out[i·w:(i+1)·w], where w =
// len(out)/k. It allocates only to grow its chaining blocks to a k larger
// than any it met before.
func (f *BlockPRF) SumAllInto(out, in []byte, k int) {
	w := len(out)
	if k != 1 && k > 0 {
		w /= k
	}
	if k < 0 || len(in) != k*f.inputLen || len(out) != k*w || w > BlockPRFSize {
		panic(fmt.Sprintf("crypto: blockprf: %d inputs of %d bytes into %d output bytes on a PRF of %d-byte inputs and at most %d-byte outputs",
			k, len(in), len(out), f.inputLen, BlockPRFSize))
	}
	for i, tag := range f.tags(in, k) {
		copy(out[i*w:(i+1)*w], tag[:])
	}
}

// tags runs the k CBC-MAC chains over in, one EncryptBlocks call per
// chaining step, and returns the chaining blocks, which then hold the k
// full tags. Its caller has checked the lengths.
func (f *BlockPRF) tags(in []byte, k int) [][BlockPRFSize]byte {
	s := f.state[:min(k, len(f.state))]
	if k > len(f.state) {
		if cap(f.many) < k {
			f.many = make([][BlockPRFSize]byte, k)
		}
		s = f.many[:k]
	}
	clear(s)
	n := f.inputLen
	for off := 0; ; off += BlockPRFSize {
		end := min(off+BlockPRFSize, n)
		for i := range s {
			xorBlock(&s[i], in[i*n+off:i*n+end])
		}
		f.aes.EncryptBlocks(s)
		if end == n {
			return s
		}
	}
}

// xorBlock XORs src, at most one block, into b: two 64-bit XORs for a
// whole block, which is every step of a chain but its last.
func xorBlock(b *[BlockPRFSize]byte, src []byte) {
	if len(src) == BlockPRFSize {
		lo := binary.LittleEndian.Uint64(b[:8]) ^ binary.LittleEndian.Uint64(src[:8])
		hi := binary.LittleEndian.Uint64(b[8:]) ^ binary.LittleEndian.Uint64(src[8:])
		binary.LittleEndian.PutUint64(b[:8], lo)
		binary.LittleEndian.PutUint64(b[8:], hi)
		return
	}
	for i, v := range src {
		b[i] ^= v
	}
}
