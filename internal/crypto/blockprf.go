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
// SumInto is its k = 1 case. Inside, an input is its zero-padded 16-byte
// blocks, the form WidePRF and PRP keep their inputs in throughout, so a
// chaining step is two 64-bit XORs a block. swp.Matcher advances the
// same chains over a scan's run of cipherwords, in its own blocks and on
// its own AES256, and swp.Codec advances F's chains of a whole run, each
// under its word's own key, through EncryptBlocksKeyed.
//
// Its AES is an AES256 value held in the struct, so NewBlockPRF expands
// the key in place: on the AES-NI path it does not allocate, and
// under FIPS 140-3 mode, purego and on other architectures each key is one
// crypto/aes cipher (see AES256).
//
// A BlockPRF is NOT safe for concurrent use (the message and chaining
// blocks live in the struct so that a call performs no heap allocation
// once they have grown to its batch); Clone hands each goroutine its own,
// with a copy of the key schedule. It is a value so that a caller who
// evaluates it side by side with other goroutines can place it on memory
// of its own choosing.
type BlockPRF struct {
	aes      AES256
	inputLen int
	msg, tag [][BlockPRFSize]byte // a batch's zero-padded messages and its chains, grown to the largest met
}

// NewBlockPRF builds the PRF for one key and one input length.
func NewBlockPRF(key Key, inputLen int) BlockPRF {
	f := BlockPRF{inputLen: inputLen}
	f.aes.Rekey(key)
	return f
}

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
// len(out)/k. It allocates only to grow its scratch to a k larger than
// any it met before.
func (f *BlockPRF) SumAllInto(out, in []byte, k int) {
	w := len(out)
	if k != 1 && k > 0 {
		w /= k
	}
	if k < 0 || len(in) != k*f.inputLen || len(out) != k*w || w > BlockPRFSize {
		panic(fmt.Sprintf("crypto: blockprf: %d inputs of %d bytes into %d output bytes on a PRF of %d-byte inputs and at most %d-byte outputs",
			k, len(in), len(out), f.inputLen, BlockPRFSize))
	}
	mb := messageBlocks(f.inputLen)
	msg, tags := grow(&f.msg, k*mb), grow(&f.tag, k)
	for i := range tags {
		loadBlocks(msg[i*mb:(i+1)*mb], in, i*f.inputLen, f.inputLen)
	}
	f.chains(tags, msg)
	for i := range tags {
		copy(out[i*w:(i+1)*w], tags[i][:])
	}
}

// chains runs one CBC-MAC chain per tag over zero-padded messages of
// len(msg)/len(tags) blocks apiece, message i at msg[i·mb:(i+1)·mb], one
// EncryptBlocks call per chaining step, and leaves tag i in tags[i].
func (f *BlockPRF) chains(tags, msg [][BlockPRFSize]byte) {
	if len(tags) == 0 {
		return
	}
	mb := len(msg) / len(tags)
	for i := range tags {
		tags[i] = msg[i*mb]
	}
	f.aes.EncryptBlocks(tags)
	for b := 1; b < mb; b++ {
		for i := range tags {
			XORBlock(&tags[i], &msg[i*mb+b])
		}
		f.aes.EncryptBlocks(tags)
	}
}

// messageBlocks is the number of blocks CBC-MAC chains over for an
// n-byte message: ⌈n/16⌉, and one for the empty message.
func messageBlocks(n int) int { return max(1, (n+BlockPRFSize-1)/BlockPRFSize) }

// The block helpers below are the zero-padded block form this package
// keeps messages, halves and tags in, and swp.Codec keeps its words in:
// none loops over bytes or branches on a byte's value.

// loadBlocks writes the n bytes at buf[at:] into the zero-padded blocks
// dst, ⌈n/16⌉ or more of them: two masked 64-bit loads a block wherever
// 16 bytes of buf remain, a copy near its end.
func loadBlocks(dst [][BlockPRFSize]byte, buf []byte, at, n int) {
	for b := range dst {
		off, left := at+b*BlockPRFSize, n-b*BlockPRFSize
		if off+BlockPRFSize > len(buf) {
			dst[b] = [BlockPRFSize]byte{}
			copy(dst[b][:], buf[min(off, at+n):at+n])
			continue
		}
		binary.LittleEndian.PutUint64(dst[b][:8], binary.LittleEndian.Uint64(buf[off:])&lowBytes(left))
		binary.LittleEndian.PutUint64(dst[b][8:], binary.LittleEndian.Uint64(buf[off+8:])&lowBytes(left-8))
	}
}

// storeBlocks writes the first n bytes of the blocks src to buf[at:]: a
// whole block wherever 16 bytes of buf remain, so it may overwrite up to
// 15 bytes past the n, which a caller that stores in ascending order
// writes next.
func storeBlocks(buf []byte, at, n int, src [][BlockPRFSize]byte) {
	for b := range src {
		off := at + b*BlockPRFSize
		if off+BlockPRFSize <= len(buf) {
			*(*[BlockPRFSize]byte)(buf[off:]) = src[b]
		} else {
			copy(buf[min(off, at+n):at+n], src[b][:])
		}
	}
}

// lowBytes masks the low n bytes of a uint64: none for n ≤ 0, all for
// n ≥ 8.
func lowBytes(n int) uint64 { return ^uint64(0) >> (64 - 8*uint(min(max(n, 0), 8))) }

// XORBlock XORs the block s into d: two 64-bit XORs.
func XORBlock(d, s *[BlockPRFSize]byte) {
	binary.LittleEndian.PutUint64(d[:8], binary.LittleEndian.Uint64(d[:8])^binary.LittleEndian.Uint64(s[:8]))
	binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^binary.LittleEndian.Uint64(s[8:]))
}

// ANDBlock keeps the bits of d that are set in the mask m: two 64-bit
// ANDs.
func ANDBlock(d, m *[BlockPRFSize]byte) {
	binary.LittleEndian.PutUint64(d[:8], binary.LittleEndian.Uint64(d[:8])&binary.LittleEndian.Uint64(m[:8]))
	binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])&binary.LittleEndian.Uint64(m[8:]))
}

// EqualBlocks reports whether a and b, of one length, hold the same
// blocks, in time that depends on their length only.
func EqualBlocks(a, b [][BlockPRFSize]byte) bool {
	var d uint64
	for i := range a {
		d |= binary.LittleEndian.Uint64(a[i][:8]) ^ binary.LittleEndian.Uint64(b[i][:8])
		d |= binary.LittleEndian.Uint64(a[i][8:]) ^ binary.LittleEndian.Uint64(b[i][8:])
	}
	return d == 0
}

// LowBytes returns the mask block of the low n bytes.
func LowBytes(n int) (m [BlockPRFSize]byte) {
	binary.LittleEndian.PutUint64(m[:8], lowBytes(n))
	binary.LittleEndian.PutUint64(m[8:], lowBytes(n-8))
	return m
}

// grow returns the first n elements of *buf, reallocated if it is
// shorter.
func grow[T any](buf *[]T, n int) []T {
	if len(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
