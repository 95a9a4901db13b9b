package crypto

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestPRFDeterministic(t *testing.T) {
	p := NewPRF(testKey(1))
	a := p.Sum([]byte("hello"), 32)
	b := p.Sum([]byte("hello"), 32)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF is not deterministic")
	}
}

func TestPRFInputSeparation(t *testing.T) {
	p := NewPRF(testKey(1))
	if bytes.Equal(p.Sum([]byte("a"), 16), p.Sum([]byte("b"), 16)) {
		t.Fatal("PRF collides on distinct inputs")
	}
}

func TestPRFKeySeparation(t *testing.T) {
	a := NewPRF(testKey(1)).Sum([]byte("x"), 16)
	b := NewPRF(testKey(2)).Sum([]byte("x"), 16)
	if bytes.Equal(a, b) {
		t.Fatal("PRF output identical under different keys")
	}
}

func TestPRFOutputLengths(t *testing.T) {
	p := NewPRF(testKey(3))
	for _, n := range []int{0, 1, 16, 31, 32, 33, 64, 100, 1000} {
		out := p.Sum([]byte("len"), n)
		if len(out) != n {
			t.Fatalf("Sum(_, %d) returned %d bytes", n, len(out))
		}
	}
}

func TestPRFExpansionIsPrefixConsistent(t *testing.T) {
	// Counter-mode expansion: a longer output must extend the shorter one.
	p := NewPRF(testKey(4))
	short := p.Sum([]byte("pfx"), 16)
	long := p.Sum([]byte("pfx"), 64)
	if !bytes.Equal(short, long[:16]) {
		t.Fatal("expanded output does not extend shorter output")
	}
}

func TestSumStringsInjective(t *testing.T) {
	// Length prefixing must distinguish ("ab","c") from ("a","bc").
	p := NewPRF(testKey(5))
	x := p.SumStrings(32, []byte("ab"), []byte("c"))
	y := p.SumStrings(32, []byte("a"), []byte("bc"))
	if bytes.Equal(x, y) {
		t.Fatal("SumStrings not injective over part boundaries")
	}
}

func TestDeriveKeyDomainSeparation(t *testing.T) {
	p := NewPRF(testKey(6))
	k1 := p.DeriveKey("label-a", []byte("ctx"))
	k2 := p.DeriveKey("label-b", []byte("ctx"))
	k3 := p.DeriveKey("label-a", []byte("other"))
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatal("derived keys collide across labels/contexts")
	}
}

func TestKeyFromBytes(t *testing.T) {
	long := make([]byte, 40)
	for i := range long {
		long[i] = byte(i)
	}
	k := KeyFromBytes(long)
	if !bytes.Equal(k[:], long[:KeySize]) {
		t.Fatal("KeyFromBytes should truncate long inputs")
	}
	short := KeyFromBytes([]byte("short"))
	var zero Key
	if short == zero {
		t.Fatal("KeyFromBytes of short input should not be all-zero")
	}
	if short != KeyFromBytes([]byte("short")) {
		t.Fatal("KeyFromBytes not deterministic")
	}
}

func TestCheckKeyLen(t *testing.T) {
	if err := CheckKeyLen(make([]byte, KeySize)); err != nil {
		t.Fatalf("CheckKeyLen rejected a valid key: %v", err)
	}
	if err := CheckKeyLen(make([]byte, KeySize-1)); err == nil {
		t.Fatal("CheckKeyLen accepted a short key")
	}
}

func TestSumIntoMatchesSum(t *testing.T) {
	p := NewPRF(testKey(8))
	for _, n := range []int{0, 1, 2, 16, 31, 32, 33, 64, 100, 257} {
		want := p.Sum([]byte("agree"), n)
		dst := make([]byte, n)
		p.SumInto(dst, []byte("agree"))
		if !bytes.Equal(dst, want) {
			t.Fatalf("SumInto(%d bytes) = %x, Sum = %x", n, dst, want)
		}
	}
}

func TestSumIntoZeroValuePRF(t *testing.T) {
	// A zero-value PRF (not built by NewPRF) must still evaluate, lazily
	// constructing its HMAC state.
	var p PRF
	dst := make([]byte, 16)
	p.SumInto(dst, []byte("lazy"))
	var fresh Key
	if !bytes.Equal(dst, NewPRF(fresh).Sum([]byte("lazy"), 16)) {
		t.Fatal("zero-value PRF disagrees with NewPRF of the zero key")
	}
}

func TestSumIntoZeroAllocs(t *testing.T) {
	p := NewPRF(testKey(11))
	input := []byte("some fourteen-byte-ish input")
	dst := make([]byte, 48) // exercises both full-block and partial paths
	p.SumInto(dst, input)   // warm up
	if allocs := testing.AllocsPerRun(200, func() { p.SumInto(dst, input) }); allocs != 0 {
		t.Fatalf("SumInto allocates %v objects per run, want 0", allocs)
	}
}

func TestPRFConcurrentUse(t *testing.T) {
	// A single PRF must stay usable from many goroutines (client code
	// encrypting in parallel shares scheme-held PRFs); the shared HMAC
	// state is mutex-guarded. Run under -race.
	p := NewPRF(testKey(12))
	want := p.Sum([]byte("shared"), 32)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				if !bytes.Equal(p.Sum([]byte("shared"), 32), want) {
					done <- fmt.Errorf("concurrent Sum returned a corrupted value")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPRFDistinctInputsProperty(t *testing.T) {
	p := NewPRF(testKey(7))
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return !bytes.Equal(p.Sum(a, 32), p.Sum(b, 32))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
