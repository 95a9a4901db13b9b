package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
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
// permutation (as PRG already does) plus the PRP/PRF switching lemma. The
// input length is therefore part of the instance, and a SumInto of any
// other length is a bug, not an input: zero padding would let inputs of
// different lengths collide.
//
// A BlockPRF is NOT safe for concurrent use (SumInto chains through a
// struct-held block so it performs no heap allocations); Clone hands each
// goroutine its own, sharing the key schedule. It is a value so that a
// caller who evaluates it side by side with other goroutines can place
// it — and with it the chaining block every call rewrites — on memory of
// its own choosing (swp.Matcher keeps it off its neighbours' cache lines).
type BlockPRF struct {
	block    cipher.Block // stateless, shared between clones
	inputLen int
	state    [BlockPRFSize]byte
}

// NewBlockPRF builds the PRF for one key and one input length.
func NewBlockPRF(key Key, inputLen int) BlockPRF {
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("crypto: blockprf: %v", err)) // unreachable: KeySize is an AES-256 key length
	}
	return BlockPRF{block: b, inputLen: inputLen}
}

// Clone returns an independent evaluator of the same function, sharing
// the expanded key.
func (f *BlockPRF) Clone() BlockPRF {
	return BlockPRF{block: f.block, inputLen: f.inputLen}
}

// SumInto writes the first len(dst) <= BlockPRFSize bytes of the PRF of
// input into dst, without allocating.
func (f *BlockPRF) SumInto(dst, input []byte) {
	if len(input) != f.inputLen || len(dst) > BlockPRFSize {
		panic(fmt.Sprintf("crypto: blockprf: %d-byte input, %d-byte output on a PRF of %d-byte inputs and at most %d-byte outputs",
			len(input), len(dst), f.inputLen, BlockPRFSize))
	}
	s := f.state[:]
	clear(s)
	for {
		n := subtle.XORBytes(s, s, input)
		f.block.Encrypt(s, s)
		if input = input[n:]; len(input) == 0 {
			break
		}
	}
	copy(dst, s)
}

// SumBlocks evaluates a PRF of one-block inputs on every block, in place:
// each block holds an input zero-padded to BlockPRFSize bytes and receives
// the full-width output, the value SumInto truncates. Nothing chains from
// one block to the next, so the AES calls run back to back and the CPU
// overlaps them; the caller's blocks are the only memory written, and
// nothing is allocated. It panics on an instance whose inputs take more
// than one block.
func (f *BlockPRF) SumBlocks(blocks [][BlockPRFSize]byte) {
	if f.inputLen > BlockPRFSize {
		panic(fmt.Sprintf("crypto: blockprf: SumBlocks on a PRF of %d-byte inputs, which take more than one block", f.inputLen))
	}
	for i := range blocks {
		f.block.Encrypt(blocks[i][:], blocks[i][:])
	}
}
