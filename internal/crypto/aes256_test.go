package crypto

import (
	"crypto/aes"
	"crypto/fips140"
	"fmt"
	"math/rand"
	"testing"
)

// kernels returns every path NewAES256 can take on this machine for the
// key: the crypto/aes loop always, the AES-NI kernel where the build and
// the CPU have it.
func kernels(key Key) map[string]*AES256 {
	out := map[string]*AES256{}
	fallback := newAES256(key, false)
	out["crypto/aes"] = &fallback
	if aesni {
		asm := newAES256(key, true)
		out["aes-ni"] = &asm
	}
	return out
}

// TestEncryptBlocksIsAES: under random keys, every run of 0..40 blocks —
// which takes the eight-block loop, the four-block tail and the one-block
// tail in every combination — encrypts each block exactly as crypto/aes
// does.
func TestEncryptBlocksIsAES(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		var key Key
		rng.Read(key[:])
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		for name, a := range kernels(key) {
			for n := 0; n <= 40; n++ {
				blocks := make([][aes.BlockSize]byte, n)
				for i := range blocks {
					rng.Read(blocks[i][:])
				}
				want := make([][aes.BlockSize]byte, n)
				for i := range want {
					ref.Encrypt(want[i][:], blocks[i][:])
				}
				a.EncryptBlocks(blocks)
				for i := range blocks {
					if blocks[i] != want[i] {
						t.Fatalf("%s, key %x, %d blocks: block %d is %x, crypto/aes says %x", name, key, n, i, blocks[i], want[i])
					}
				}
			}
		}
	}
}

// TestEncryptBlocksFIPS197 pins both paths to the FIPS-197 appendix C.3
// AES-256 example vector, in every slot of a run that takes all three
// loops, at 0 allocations.
func TestEncryptBlocksFIPS197(t *testing.T) {
	var key Key
	copy(key[:], unhex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"))
	plain := [aes.BlockSize]byte(unhex(t, "00112233445566778899aabbccddeeff"))
	want := [aes.BlockSize]byte(unhex(t, "8ea2b7ca516745bfeafc49904b496089"))
	for name, a := range kernels(key) {
		blocks := make([][aes.BlockSize]byte, 13)
		reset := func() {
			for i := range blocks {
				blocks[i] = plain
			}
		}
		reset()
		a.EncryptBlocks(blocks)
		for i, b := range blocks {
			if b != want {
				t.Fatalf("%s: block %d of %d is %x, want the FIPS-197 ciphertext %x", name, i, len(blocks), b, want)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() { reset(); a.EncryptBlocks(blocks) }); allocs != 0 {
			t.Fatalf("%s: EncryptBlocks allocates %v objects per run, want 0", name, allocs)
		}
	}
}

// TestFIPSModeStaysInModule: a process in FIPS 140-3 mode never takes the
// assembly kernel, which lies outside Go's validated module. It runs
// only under GODEBUG=fips140=on.
func TestFIPSModeStaysInModule(t *testing.T) {
	if !fips140.Enabled() {
		t.Skip("not in FIPS 140-3 mode; run with GODEBUG=fips140=on")
	}
	if a := NewAES256(testKey(31)); a.block == nil {
		t.Fatal("NewAES256 took the assembly kernel in FIPS 140-3 mode")
	}
}

// BenchmarkEncryptBlocks times one EncryptBlocks call per op at the run
// lengths the scan issues (1: a lone Match; 3: one emp tuple; 8: one
// interleaved group; 32: a full run), against a crypto/aes Encrypt per
// block.
func BenchmarkEncryptBlocks(b *testing.B) {
	key := testKey(27)
	ref, err := aes.NewCipher(key[:])
	if err != nil {
		b.Fatal(err)
	}
	a := NewAES256(key)
	for _, n := range []int{1, 3, 8, 32} {
		blocks := make([][aes.BlockSize]byte, n)
		b.Run(fmt.Sprintf("blocks=%d/kernel", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				a.EncryptBlocks(blocks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/block")
		})
		b.Run(fmt.Sprintf("blocks=%d/crypto-aes", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for i := range blocks {
					ref.Encrypt(blocks[i][:], blocks[i][:])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/block")
		})
	}
}
