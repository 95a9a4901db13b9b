package crypto

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBlockPRFOneBlockIsAES pins the one-block path to the FIPS-197
// appendix C.3 AES-256 example vector: a 16-byte input is one raw block
// encryption, and a narrower output is its prefix.
func TestBlockPRFOneBlockIsAES(t *testing.T) {
	var key Key
	copy(key[:], unhex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"))
	plain := unhex(t, "00112233445566778899aabbccddeeff")
	want := unhex(t, "8ea2b7ca516745bfeafc49904b496089")

	f := NewBlockPRF(key, len(plain))
	got := make([]byte, BlockPRFSize)
	f.SumInto(got, plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("one-block PRF = %x, want the FIPS-197 ciphertext %x", got, want)
	}
	short := make([]byte, 5)
	f.SumInto(short, plain)
	if !bytes.Equal(short, want[:5]) {
		t.Fatalf("5-byte output %x is not a prefix of %x", short, want)
	}
}

// refCBCMAC is the textbook definition the implementation must equal:
// zero-pad to whole blocks, chain from a zero IV, return the last block.
func refCBCMAC(t *testing.T, key Key, input []byte) []byte {
	t.Helper()
	b, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	padded := make([]byte, max(1, (len(input)+15)/16)*16)
	copy(padded, input)
	state := make([]byte, 16)
	for ; len(padded) > 0; padded = padded[16:] {
		for i := range state {
			state[i] ^= padded[i]
		}
		b.Encrypt(state, state)
	}
	return state
}

func TestBlockPRFMatchesReferenceCBCMAC(t *testing.T) {
	key := testKey(21)
	for n := 0; n <= 80; n++ {
		input := make([]byte, n)
		for i := range input {
			input[i] = byte(3*i + n)
		}
		want := refCBCMAC(t, key, input)
		f := NewBlockPRF(key, n)
		for _, m := range []int{0, 1, 2, 9, 16} {
			got := make([]byte, m)
			f.SumInto(got, input) // reusing f also checks the state is reset per call
			if !bytes.Equal(got, want[:m]) {
				t.Fatalf("input %d bytes, output %d: got %x, want %x", n, m, got, want[:m])
			}
		}
	}
}

func TestBlockPRFCloneComputesTheSameFunction(t *testing.T) {
	f := NewBlockPRF(testKey(22), 40)
	input := bytes.Repeat([]byte{0x5c}, 40)
	a, b := make([]byte, 16), make([]byte, 16)
	f.SumInto(a, input)
	c := f.Clone()
	c.SumInto(b, input)
	if !bytes.Equal(a, b) {
		t.Fatalf("clone computed %x, original %x", b, a)
	}
	other := make([]byte, 16)
	g := NewBlockPRF(testKey(23), 40)
	g.SumInto(other, input)
	if bytes.Equal(a, other) {
		t.Fatal("two keys computed the same output")
	}
}

// TestBlockPRFRejectsOtherLengths: the fixed input length is what makes
// raw CBC-MAC a PRF, so the type enforces it instead of trusting callers.
func TestBlockPRFRejectsOtherLengths(t *testing.T) {
	f := NewBlockPRF(testKey(24), 9)
	expectPanics(t, map[string]func(){
		"short input": func() { f.SumInto(make([]byte, 2), make([]byte, 8)) },
		"long input":  func() { f.SumInto(make([]byte, 2), make([]byte, 10)) },
		"wide output": func() { f.SumInto(make([]byte, 17), make([]byte, 9)) },
	})
}

// expectPanics runs every call and fails the test for each that returns.
func expectPanics(t *testing.T, calls map[string]func()) {
	t.Helper()
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestBlockPRFSumBlocksIsSumInto: on every one-block input length, each
// block SumBlocks encrypts in place is SumInto's full-width output on that
// block's zero-padded input, without allocating; a multi-block instance
// refuses.
func TestBlockPRFSumBlocksIsSumInto(t *testing.T) {
	for n := 0; n <= BlockPRFSize; n++ {
		f := NewBlockPRF(testKey(26), n)
		blocks := make([][BlockPRFSize]byte, 5)
		inputs := make([][]byte, len(blocks))
		for i := range blocks {
			for j := 0; j < n; j++ {
				blocks[i][j] = byte(7*i + 3*j + n)
			}
			inputs[i] = bytes.Clone(blocks[i][:n])
		}
		f.SumBlocks(blocks)
		for i, in := range inputs {
			want := make([]byte, BlockPRFSize)
			f.SumInto(want, in)
			if !bytes.Equal(blocks[i][:], want) {
				t.Fatalf("input %d bytes, block %d: SumBlocks %x, SumInto %x", n, i, blocks[i], want)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() { f.SumBlocks(blocks) }); allocs != 0 {
			t.Fatalf("SumBlocks on %d-byte inputs allocates %v objects per run, want 0", n, allocs)
		}
	}
	f := NewBlockPRF(testKey(26), BlockPRFSize+1)
	expectPanics(t, map[string]func(){
		"two-block instance": func() { f.SumBlocks(make([][BlockPRFSize]byte, 1)) },
	})
}

func TestBlockPRFSumIntoZeroAllocs(t *testing.T) {
	for _, n := range []int{9, 16, 17, 40} {
		f := NewBlockPRF(testKey(25), n)
		dst, input := make([]byte, 2), make([]byte, n)
		if allocs := testing.AllocsPerRun(200, func() { f.SumInto(dst, input) }); allocs != 0 {
			t.Fatalf("SumInto on %d-byte inputs allocates %v objects per run, want 0", n, allocs)
		}
	}
}
