package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/fips140"
	"fmt"
	"math/rand"
	"testing"
)

// paths names every path AES256 can take on this machine: the crypto/aes
// loop always, the AES-NI kernel where the build and the CPU have it.
func paths() map[string]bool {
	out := map[string]bool{"crypto/aes": false}
	if aesni {
		out["aes-ni"] = true
	}
	return out
}

// onPath runs f with every AES256 expanded inside it — NewAES256, and
// with it every PRG, BlockPRF, WidePRF and PRP built or re-keyed there —
// on the path asm names. asm must be one of paths().
func onPath(asm bool, f func()) {
	defer func(was bool) { aesni = was }(aesni)
	aesni = asm
	f()
}

// kernels returns the key expanded on every path of paths().
func kernels(key Key) map[string]*AES256 {
	out := map[string]*AES256{}
	for name, asm := range paths() {
		onPath(asm, func() {
			a := NewAES256(key)
			out[name] = &a
		})
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

// FuzzEncryptBlocks: under any 32-byte key (the input's first 32 bytes,
// zero-padded), a run of 0 to 40 blocks (the input's whole blocks) encrypts
// on every path of paths() block for block as crypto/aes does, so that the
// AES-NI kernel's eight-block body and its four- and one-block tails all
// meet odd lengths. The seeds sit on and around every edge between them.
func FuzzEncryptBlocks(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 32, 33, 40} {
		key, data := make([]byte, KeySize), make([]byte, n*aes.BlockSize)
		rng.Read(key)
		rng.Read(data)
		f.Add(key, data)
	}
	f.Fuzz(func(t *testing.T, keyBytes, data []byte) {
		var key Key
		copy(key[:], keyBytes)
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		n := min(len(data)/aes.BlockSize, 40)
		for name, a := range kernels(key) {
			blocks := make([][aes.BlockSize]byte, n)
			for i := range blocks {
				copy(blocks[i][:], data[i*aes.BlockSize:])
			}
			a.EncryptBlocks(blocks)
			for i := range blocks {
				var want [aes.BlockSize]byte
				ref.Encrypt(want[:], data[i*aes.BlockSize:])
				if blocks[i] != want {
					t.Fatalf("%s, key %x, %d blocks: block %d is %x, crypto/aes says %x", name, key, n, i, blocks[i], want)
				}
			}
		}
	})
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

// TestRekeyZeroAllocs: on the AES-NI path every key expansion F performs
// is in place — AES256.Rekey and NewBlockPRF allocate nothing — and a
// re-keyed instance computes what a fresh one does. On the crypto/aes
// path each is one cipher at most.
func TestRekeyZeroAllocs(t *testing.T) {
	for name, asm := range paths() {
		onPath(asm, func() {
			want := 0.0
			if !asm {
				want = 1
			}
			f := NewBlockPRF(testKey(1), 9)
			var a AES256
			for op, call := range map[string]func(){
				"AES256.Rekey": func() { a.Rekey(testKey(2)) },
				"NewBlockPRF":  func() { f = NewBlockPRF(testKey(2), 9) },
			} {
				if allocs := testing.AllocsPerRun(100, call); allocs > want {
					t.Errorf("%s: %s allocates %v objects, want at most %v", name, op, allocs, want)
				}
			}
			fresh := NewBlockPRF(testKey(2), 9)
			in, got, wantSum := make([]byte, 9), make([]byte, 16), make([]byte, 16)
			f.SumInto(got, in)
			fresh.SumInto(wantSum, in)
			if !bytes.Equal(got, wantSum) {
				t.Errorf("%s: a re-keyed F differs from a fresh one", name)
			}
		})
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

// keyTable expands the keys packed 32 bytes apiece in raw (a last short
// one zero-padded) with ExpandKeys, key i into schedule n−1−i of a table
// that has one more schedule no index names, and returns the n schedules
// in key order with crypto/aes ciphers of the same keys. It fails the
// test if the schedule no index names changed.
func keyTable(t *testing.T, raw []byte) ([]AES256, []cipher.Block) {
	n := (len(raw) + KeySize - 1) / KeySize
	pairs := make([][aes.BlockSize]byte, 2*n)
	for i := range pairs {
		copy(pairs[i][:], raw[min(i*aes.BlockSize, len(raw)):])
	}
	table, ks := make([]AES256, n+1), make([]uint32, n)
	for i := range ks {
		ks[i] = uint32(n - 1 - i)
	}
	table[n].Rekey(Key{1})
	untouched := table[n]
	ExpandKeys(table, ks, pairs)
	if table[n] != untouched {
		t.Fatalf("ExpandKeys of %d keys wrote a schedule no index names", n)
	}
	keys, refs := make([]AES256, n), make([]cipher.Block, n)
	for i := range refs {
		keys[i] = table[n-1-i]
		var err error
		if refs[i], err = aes.NewCipher(append(pairs[2*i][:], pairs[2*i+1][:]...)); err != nil {
			t.Fatal(err)
		}
	}
	return keys, refs
}

// FuzzExpandKeys: any number of keys (the input's 32-byte pieces, the
// last zero-padded, at most 40) expands on every path of paths(), each
// into the schedule its index names and no other, into schedules that
// encrypt as crypto/aes does under the same key, and on the AES-NI path
// into the very schedule Rekey writes. The seeds sit on
// and around the edges of the four-key body and the one-key tail.
func FuzzExpandKeys(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 16, 17} {
		raw := make([]byte, n*KeySize)
		rng.Read(raw)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = raw[:min(len(raw), 40*KeySize)]
		raw = append(raw, make([]byte, (KeySize-len(raw)%KeySize)%KeySize)...)
		for name, asm := range paths() {
			onPath(asm, func() {
				keys, refs := keyTable(t, raw)
				for i := range keys {
					var one AES256
					one.Rekey(Key(raw[i*KeySize:]))
					if asm && keys[i].rk != one.rk {
						t.Fatalf("%s: key %d of %d: ExpandKeys' schedule differs from Rekey's", name, i, len(keys))
					}
					blocks := [][aes.BlockSize]byte{{}, [aes.BlockSize]byte(raw[i*KeySize/2:])}
					var want [2][aes.BlockSize]byte
					for j := range blocks {
						refs[i].Encrypt(want[j][:], blocks[j][:])
					}
					keys[i].EncryptBlocks(blocks)
					if blocks[0] != want[0] || blocks[1] != want[1] {
						t.Fatalf("%s: key %d of %d encrypts to %x, crypto/aes says %x", name, i, len(keys), blocks, want)
					}
				}
			})
		}
	})
}

// FuzzEncryptBlocksKeyed: a run of 0 to 40 blocks, block i under the key
// the input's selector byte i picks among up to 17 keys, encrypts on
// every path of paths() block for block as crypto/aes does under that
// key — and so does a CBC chain of 1 to 3 such calls, each block XORed
// with the next input block between them, the way F's chains over a wide
// stream run. The seeds sit on and around the edges of the eight- and
// one-block loops, at 1 to 17 keys and chains of 1 to 3 blocks.
func FuzzEncryptBlocksKeyed(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 16, 17} {
		for chain := uint8(0); chain < 3; chain++ {
			raw, sel, data := make([]byte, (n%17+1)*KeySize), make([]byte, n), make([]byte, n*aes.BlockSize)
			rng.Read(raw)
			rng.Read(sel)
			rng.Read(data)
			f.Add(raw, sel, data, chain)
		}
	}
	f.Fuzz(func(t *testing.T, raw, sel, data []byte, chain uint8) {
		raw = raw[:min(len(raw), 17*KeySize)]
		if len(raw) == 0 {
			raw = make([]byte, KeySize)
		}
		n := min(len(data)/aes.BlockSize, len(sel), 40)
		steps := int(chain%3) + 1
		input := func(i, step int) [aes.BlockSize]byte {
			b := [aes.BlockSize]byte(data[i*aes.BlockSize:])
			b[0] ^= byte(step)
			return b
		}
		for name, asm := range paths() {
			onPath(asm, func() {
				keys, refs := keyTable(t, raw)
				ks, blocks := make([]uint32, n), make([][aes.BlockSize]byte, n)
				for i := range ks {
					ks[i] = uint32(int(sel[i]) % len(keys))
				}
				for step := range steps {
					for i := range blocks {
						in := input(i, step)
						for j := range in {
							blocks[i][j] ^= in[j]
						}
					}
					EncryptBlocksKeyed(keys, ks, blocks)
				}
				for i := range blocks {
					var want [aes.BlockSize]byte
					for step := range steps {
						in := input(i, step)
						for j := range in {
							want[j] ^= in[j]
						}
						refs[ks[i]].Encrypt(want[:], want[:])
					}
					if blocks[i] != want {
						t.Fatalf("%s: %d blocks, chain of %d: block %d under key %d is %x, crypto/aes says %x", name, n, steps, i, ks[i], blocks[i], want)
					}
				}
			})
		}
	})
}

// TestKeyedZeroAllocs: on the AES-NI path ExpandKeys expands in place and
// EncryptBlocksKeyed only reads its schedules, so neither allocates; on
// the crypto/aes path ExpandKeys is one cipher per key at most.
func TestKeyedZeroAllocs(t *testing.T) {
	for name, asm := range paths() {
		onPath(asm, func() {
			perKey := 0.0
			if !asm {
				perKey = 1
			}
			keys, raw, order := make([]AES256, 9), make([][aes.BlockSize]byte, 18), make([]uint32, 9)
			ks, blocks := make([]uint32, 13), make([][aes.BlockSize]byte, 13)
			for i := range ks {
				ks[i] = uint32(i*5) % 9
			}
			for i := range order {
				order[i] = uint32(i*2) % 9
			}
			ExpandKeys(keys, order, raw)
			if allocs := testing.AllocsPerRun(100, func() { ExpandKeys(keys, order, raw) }); allocs > perKey*float64(len(keys)) {
				t.Errorf("%s: ExpandKeys of %d keys allocates %v objects, want at most %v", name, len(keys), allocs, perKey*float64(len(keys)))
			}
			if allocs := testing.AllocsPerRun(100, func() { EncryptBlocksKeyed(keys, ks, blocks) }); allocs != 0 {
				t.Errorf("%s: EncryptBlocksKeyed allocates %v objects, want 0", name, allocs)
			}
		})
	}
}

// BenchmarkExpandKeys times one key expansion, alone (Rekey) and four
// side by side (ExpandKeys of 32 keys).
func BenchmarkExpandKeys(b *testing.B) {
	keys, raw, ks := make([]AES256, 32), make([][aes.BlockSize]byte, 64), make([]uint32, 32)
	for i := range ks {
		ks[i] = uint32(i)
	}
	b.Run("rekey", func(b *testing.B) {
		for b.Loop() {
			for i := range keys {
				keys[i].Rekey(Key{byte(i)})
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
	})
	b.Run("expandkeys", func(b *testing.B) {
		for b.Loop() {
			ExpandKeys(keys, ks, raw)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
	})
}
