package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
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
// AESKEYGENASSIST, and EncryptBlocks runs eight blocks at a time through
// interleaved AESENC, then a four-block and a one-block tail, in Go
// assembly with no table lookups. That path bypasses crypto/aes and so
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
		a.block = nil
		expandKey256(&a.rk, &key)
		return
	}
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("crypto: aes256: %v", err)) // unreachable: KeySize is an AES-256 key length
	}
	a.block = b
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
