package crypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPRPRoundTrip(t *testing.T) {
	// 40, 64 and 100 put halves beyond one and two AES blocks, where the
	// round functions concatenate tags.
	for _, n := range []int{2, 3, 4, 7, 11, 16, 32, 33, 40, 64, 100} {
		p, err := NewPRP(testKey(1), n)
		if err != nil {
			t.Fatalf("NewPRP(%d): %v", n, err)
		}
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		ct, err := p.Encrypt(src)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		if len(ct) != n {
			t.Fatalf("ciphertext length %d, want %d (length-preserving)", len(ct), n)
		}
		pt, err := p.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if !bytes.Equal(pt, src) {
			t.Fatalf("n=%d: round trip failed: %x -> %x -> %x", n, src, ct, pt)
		}
	}
}

func TestPRPRoundTripProperty(t *testing.T) {
	p, err := NewPRP(testKey(2), 12)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [12]byte) bool {
		ct, err := p.Encrypt(raw[:])
		if err != nil {
			return false
		}
		pt, err := p.Decrypt(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, raw[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPRPIsPermutationOnSmallDomain(t *testing.T) {
	// Over the full 2-byte domain the map must be a bijection.
	p, err := NewPRP(testKey(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]byte]bool, 65536)
	for x := 0; x < 65536; x++ {
		src := []byte{byte(x >> 8), byte(x)}
		ct, err := p.Encrypt(src)
		if err != nil {
			t.Fatal(err)
		}
		var k [2]byte
		copy(k[:], ct)
		if seen[k] {
			t.Fatalf("PRP not injective: collision at output %x", ct)
		}
		seen[k] = true
	}
}

func TestPRPDeterministic(t *testing.T) {
	p, _ := NewPRP(testKey(4), 8)
	src := []byte("abcdefgh")
	a, _ := p.Encrypt(src)
	b, _ := p.Encrypt(src)
	if !bytes.Equal(a, b) {
		t.Fatal("PRP not deterministic")
	}
}

func TestPRPKeySeparation(t *testing.T) {
	p1, _ := NewPRP(testKey(5), 8)
	p2, _ := NewPRP(testKey(6), 8)
	src := []byte("abcdefgh")
	a, _ := p1.Encrypt(src)
	b, _ := p2.Encrypt(src)
	if bytes.Equal(a, b) {
		t.Fatal("PRP identical under different keys")
	}
}

func TestPRPRejectsBadLengths(t *testing.T) {
	if _, err := NewPRP(testKey(7), 1); err == nil {
		t.Fatal("NewPRP accepted length 1")
	}
	p, _ := NewPRP(testKey(7), 8)
	if _, err := p.Encrypt(make([]byte, 7)); err == nil {
		t.Fatal("Encrypt accepted wrong length")
	}
	if _, err := p.Decrypt(make([]byte, 9)); err == nil {
		t.Fatal("Decrypt accepted wrong length")
	}
}

func TestPRPAvalanche(t *testing.T) {
	// Flipping one input bit should change roughly half the output; we
	// only assert it changes more than one byte (sanity, not a proof).
	p, _ := NewPRP(testKey(8), 16)
	a := make([]byte, 16)
	b := make([]byte, 16)
	b[0] ^= 1
	ca, _ := p.Encrypt(a)
	cb, _ := p.Encrypt(b)
	diff := 0
	for i := range ca {
		if ca[i] != cb[i] {
			diff++
		}
	}
	if diff < 4 {
		t.Fatalf("PRP avalanche too weak: only %d/16 bytes differ", diff)
	}
}

// TestPRPIntoMatchesWrappersWithoutAllocating: EncryptInto and DecryptInto
// are the permutation Encrypt and Decrypt wrap, in place or not, on a clone
// or not, and allocate nothing.
func TestPRPIntoMatchesWrappersWithoutAllocating(t *testing.T) {
	for _, n := range []int{2, 11, 17, 40, 100} {
		p, err := NewPRP(testKey(9), n)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(11*i + n)
		}
		want, err := p.Encrypt(src)
		if err != nil {
			t.Fatal(err)
		}
		c := p.Clone()
		dst := make([]byte, n)
		c.EncryptInto(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: a clone's EncryptInto gave %x, Encrypt %x", n, dst, want)
		}
		c.DecryptInto(dst, dst) // in place
		if !bytes.Equal(dst, src) {
			t.Fatalf("n=%d: in-place DecryptInto gave %x, want %x", n, dst, src)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			c.EncryptInto(dst, src)
			c.DecryptInto(dst, dst)
		}); allocs != 0 {
			t.Fatalf("n=%d: EncryptInto+DecryptInto allocate %v objects per run, want 0", n, allocs)
		}
	}
}

func TestPRPIntoRejectsOtherLengths(t *testing.T) {
	p, _ := NewPRP(testKey(10), 8)
	expectPanics(t, map[string]func(){
		"short src": func() { p.EncryptInto(make([]byte, 8), make([]byte, 7)) },
		"short dst": func() { p.DecryptInto(make([]byte, 7), make([]byte, 8)) },
	})
}
