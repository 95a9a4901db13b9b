package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"unsafe"
)

// aes256RoundKeys is AES-256's schedule length: 14 rounds plus the
// initial whitening key.
const aes256RoundKeys = 15

// AES256 is an expanded AES-256 key that encrypts many independent blocks
// in one call. It is the one AES under every primitive of this package
// but the AEAD: G (PRG), F (BlockPRF) and through F the word-key function
// f (WidePRF) and the pre-encryption E (PRP), and F's CBC-MAC chains in
// ψ's scan, one per cipherword of a run. The blocks of one call are
// independent of each other, and AES's throughput on independent blocks
// is several times its latency on one.
//
// On amd64 with AES-NI it holds its own round keys, expanded with
// AESENCLAST as SubWord, and EncryptBlocks runs eight blocks at a time
// through interleaved AESENC, then a four-block and a one-block tail, in
// Go assembly with no table lookups. That path bypasses crypto/aes and so
// lies outside Go's FIPS 140-3 module; a process run in FIPS 140-3 mode
// (GODEBUG=fips140=on) never takes it. In that mode, under the purego
// build tag, on other architectures and on CPUs without AES-NI it is a
// loop over a crypto/aes cipher.Block. Either way it computes AES-256
// block for block (TestEncryptBlocksIsAES).
//
// It is a value, so a caller decides where the schedule lives
// (swp.Matcher keeps it beside the run whose chains it advances, inside
// one cache-line-padded allocation), and Rekey expands a new key into it
// in place: on the AES-NI path neither allocates. EncryptBlocks only
// reads it.
//
// A []AES256 is a table of schedules for work under many keys, such as
// F under every word's own k_i in a codec's run, and both of its kernels
// address it by index: ExpandKeys expands key i into the schedule its
// index names, four schedules side by side on the AES-NI path, and
// EncryptBlocksKeyed encrypts block i under the schedule its index
// names, eight blocks under eight schedules at a time. Both follow
// AES256's paths: in FIPS 140-3 mode, under purego and without AES-NI,
// ExpandKeys is Rekey per key (one crypto/aes cipher each) and
// EncryptBlocksKeyed a loop of cipher.Block calls. Neither kernel branches
// on a key or a block byte; an index only selects the memory a schedule
// is read from.
type AES256 struct {
	rk    [aes256RoundKeys * aes.BlockSize]byte // round keys, AES-NI path
	block cipher.Block                          // the crypto/aes path; nil on the AES-NI one
}

// NewAES256 expands the key, on the AES-NI path when the CPU has it.
func NewAES256(key Key) AES256 {
	var a AES256
	a.Rekey(key)
	return a
}

// Rekey expands key in place of the current one. On the AES-NI path it
// allocates nothing; on the crypto/aes path it is aes.NewCipher.
func (a *AES256) Rekey(key Key) {
	if aesni {
		var self uint32
		a.block = nil
		expandKeysAESNI(a, &self, &key[0], 1)
		return
	}
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("crypto: aes256: %v", err)) // unreachable: KeySize is an AES-256 key length
	}
	a.block = b
}

// RoundKeys returns the expanded schedule on the AES-NI path, for a
// fused kernel that runs AES's rounds itself (swp's short-word ψ), and
// nil on the crypto/aes path, where no caller may bypass crypto/aes.
func (a *AES256) RoundKeys() *[aes256RoundKeys * aes.BlockSize]byte {
	if a.block != nil || !aesni {
		return nil
	}
	return &a.rk
}

// EncryptBlocks encrypts every block in place, without allocating.
func (a *AES256) EncryptBlocks(blocks [][aes.BlockSize]byte) {
	if a.block != nil {
		for i := range blocks {
			a.block.Encrypt(blocks[i][:], blocks[i][:])
		}
		return
	}
	if len(blocks) > 0 {
		encryptBlocksAESNI(&a.rk, &blocks[0], len(blocks))
	}
}

// The kernels address a []AES256 by index at a 256-byte stride, the
// schedule first: these fail to compile if the layout moves.
var (
	_ [unsafe.Sizeof(AES256{}) - 256]struct{}
	_ [256 - unsafe.Sizeof(AES256{})]struct{}
	_ [0 - unsafe.Offsetof(AES256{}.rk)]struct{}
)

// ExpandKeys expands key i — the 32 bytes raw[2i] ‖ raw[2i+1], the two
// tags of a WidePRF of 32-byte output — into keys[ks[i]], as Rekey does,
// for every i < len(ks), and touches no other schedule. raw must hold
// 2·len(ks) blocks, and every index must name a schedule of keys.
func ExpandKeys(keys []AES256, ks []uint32, raw [][aes.BlockSize]byte) {
	if len(raw) != 2*len(ks) {
		panic(fmt.Sprintf("crypto: aes256: %d raw blocks for %d keys", len(raw), len(ks)))
	}
	checkIndices(keys, ks)
	if !aesni {
		for i, k := range ks {
			var key Key
			copy(key[copy(key[:], raw[2*i][:]):], raw[2*i+1][:])
			keys[k].Rekey(key)
		}
		return
	}
	for _, k := range ks {
		keys[k].block = nil
	}
	if len(ks) > 0 {
		expandKeysAESNI(&keys[0], &ks[0], &raw[0][0], len(ks))
	}
}

// checkIndices panics unless every index in ks names a schedule of keys:
// the kernels index the table without bounds checks.
func checkIndices(keys []AES256, ks []uint32) {
	for _, k := range ks {
		if int(k) >= len(keys) {
			panic(fmt.Sprintf("crypto: aes256: key index %d of %d schedules", k, len(keys)))
		}
	}
}

// EncryptBlocksKeyed encrypts blocks[i] in place under keys[ks[i]], for
// every i, without allocating. ks must be as long as blocks, and every
// index in it must name a schedule of keys that has been expanded.
func EncryptBlocksKeyed(keys []AES256, ks []uint32, blocks [][aes.BlockSize]byte) {
	if len(ks) != len(blocks) {
		panic(fmt.Sprintf("crypto: aes256: %d key indices for %d blocks", len(ks), len(blocks)))
	}
	checkIndices(keys, ks)
	if !aesni {
		for i, k := range ks {
			keys[k].block.Encrypt(blocks[i][:], blocks[i][:])
		}
		return
	}
	if len(blocks) > 0 {
		encryptBlocksKeyedAESNI(&keys[0], &ks[0], &blocks[0], len(blocks))
	}
}
