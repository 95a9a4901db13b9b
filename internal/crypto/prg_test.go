package crypto

import (
	"bytes"
	"testing"
)

func TestPRGDeterministic(t *testing.T) {
	g1, g2 := NewPRG(testKey(1)), NewPRG(testKey(1))
	if !bytes.Equal(g1.Block(7, 20), g2.Block(7, 20)) {
		t.Fatal("PRG not deterministic across instances with the same seed")
	}
}

func TestPRGSeedSeparation(t *testing.T) {
	g1 := NewPRG(testKey(1))
	g2 := NewPRG(testKey(2))
	if bytes.Equal(g1.Block(0, 32), g2.Block(0, 32)) {
		t.Fatal("PRG blocks identical under different seeds")
	}
}

func TestPRGBlocksDisjoint(t *testing.T) {
	g := NewPRG(testKey(3))
	seen := make(map[string]uint64)
	for i := uint64(0); i < 1000; i++ {
		b := g.Block(i, 9)
		if j, dup := seen[string(b)]; dup {
			t.Fatalf("PRG blocks %d and %d identical", i, j)
		}
		seen[string(b)] = i
	}
}

func TestPRGRandomAccess(t *testing.T) {
	// Block(i, n) must not depend on previously generated blocks.
	g1 := NewPRG(testKey(4))
	g2 := NewPRG(testKey(4))
	_ = g1.Block(0, 16)
	_ = g1.Block(1, 16)
	want := g1.Block(42, 16)
	got := g2.Block(42, 16)
	if !bytes.Equal(want, got) {
		t.Fatal("PRG block depends on generation history")
	}
}

func TestPRGLengths(t *testing.T) {
	g := NewPRG(testKey(5))
	for _, n := range []int{1, 15, 16, 17, 32, 100} {
		if got := len(g.Block(3, n)); got != n {
			t.Fatalf("Block(_, %d) returned %d bytes", n, got)
		}
	}
}

// TestPRGBlockIntoZeroAllocs: Block is BlockInto into a fresh slice, so
// the tests above cover what it computes; this one that it allocates
// nothing of its own.
func TestPRGBlockIntoZeroAllocs(t *testing.T) {
	g := NewPRG(testKey(6))
	for _, n := range []int{1, 9, 16, 17, 40} {
		dst := make([]byte, n)
		if allocs := testing.AllocsPerRun(100, func() { g.BlockInto(dst, 7) }); allocs != 0 {
			t.Fatalf("BlockInto of %d bytes allocates %v objects per run, want 0", n, allocs)
		}
	}
}

func TestRandomKeyDistinct(t *testing.T) {
	a, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two random keys are identical")
	}
}

func TestRandomBytes(t *testing.T) {
	b, err := RandomBytes(24)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 24 {
		t.Fatalf("RandomBytes(24) returned %d bytes", len(b))
	}
}
