package authindex

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ph"
	"repro/internal/wire"
)

// leavesOf hashes a table's tuples.
func leavesOf(t *ph.EncryptedTable) [][]byte {
	out := make([][]byte, len(t.Tuples))
	for i, tp := range t.Tuples {
		out[i] = LeafHash(tp)
	}
	return out
}

// TestExtendMatchesBuild: extending an n-leaf tree by k leaves must yield
// a tree identical (root, proofs) to building from all n+k leaves, across
// the promoted-node boundary cases.
func TestExtendMatchesBuild(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33} {
		for _, k := range []int{1, 2, 3, 5, 8, 16, 17} {
			full := tableOf(n + k)
			ext := Build(&ph.EncryptedTable{Tuples: full.Tuples[:n]})
			ext.Extend(leavesOf(&ph.EncryptedTable{Tuples: full.Tuples[n:]}))
			want := Build(full)
			if !bytes.Equal(ext.Root(), want.Root()) {
				t.Fatalf("n=%d k=%d: extended root differs from rebuilt root", n, k)
			}
			if ext.LeafCount() != want.LeafCount() {
				t.Fatalf("n=%d k=%d: leaf count %d, want %d", n, k, ext.LeafCount(), want.LeafCount())
			}
			// Every position must prove and verify identically.
			positions := make([]int, n+k)
			for i := range positions {
				positions[i] = i
			}
			proofs, err := ext.Prove(positions)
			if err != nil {
				t.Fatalf("n=%d k=%d: Prove on extended tree: %v", n, k, err)
			}
			for i, p := range proofs {
				if err := Verify(want.Root(), n+k, full.Tuples[i], p); err != nil {
					t.Fatalf("n=%d k=%d pos=%d: extended-tree proof rejected by rebuilt root: %v", n, k, i, err)
				}
			}
		}
	}
}

// TestExtendRepeated grows a tree one irregular increment at a time and
// checks the root against a rebuild after every step.
func TestExtendRepeated(t *testing.T) {
	full := tableOf(64)
	tree := Build(&ph.EncryptedTable{})
	n := 0
	for _, k := range []int{1, 1, 2, 1, 3, 5, 1, 8, 13, 1, 7, 21} {
		tree.Extend(leavesOf(&ph.EncryptedTable{Tuples: full.Tuples[n : n+k]}))
		n += k
		want := Build(&ph.EncryptedTable{Tuples: full.Tuples[:n]})
		if !bytes.Equal(tree.Root(), want.Root()) {
			t.Fatalf("after growing to %d leaves: root differs from rebuild", n)
		}
	}
}

// TestExtendDoesNotInvalidateEarlierProofs: hashes handed out by Prove
// before an Extend must stay intact (storage hands proofs to the wire
// after releasing the table lock; a concurrent append to another snapshot
// must not scribble over them).
func TestExtendDoesNotInvalidateEarlierProofs(t *testing.T) {
	tab := tableOf(9)
	tree := Build(tab)
	root := tree.Root()
	proofs, err := tree.Prove([]int{0, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	tree.Extend(leavesOf(&ph.EncryptedTable{Tuples: tableOf(12).Tuples[9:]}))
	for i, pos := range []int{0, 4, 8} {
		if err := Verify(root, 9, tab.Tuples[pos], proofs[i]); err != nil {
			t.Fatalf("proof %d corrupted by later Extend: %v", i, err)
		}
	}
}

// TestExtendEmptyNoOp: extending by zero leaves changes nothing.
func TestExtendEmptyNoOp(t *testing.T) {
	tree := Build(tableOf(5))
	root := tree.Root()
	tree.Extend(nil)
	if !bytes.Equal(tree.Root(), root) {
		t.Fatal("Extend(nil) changed the root")
	}
}

// TestFrontierMatchesBuild: the frontier root must equal the tree root at
// every prefix length, including the empty tree.
func TestFrontierMatchesBuild(t *testing.T) {
	tab := tableOf(40)
	f := NewFrontier()
	if !bytes.Equal(f.Root(), Build(&ph.EncryptedTable{}).Root()) {
		t.Fatal("empty frontier root differs from empty tree root")
	}
	for i, tp := range tab.Tuples {
		f.AppendTuple(tp)
		want := Build(&ph.EncryptedTable{Tuples: tab.Tuples[:i+1]})
		if !bytes.Equal(f.Root(), want.Root()) {
			t.Fatalf("frontier root differs from tree root at %d leaves", i+1)
		}
		if f.Count() != i+1 {
			t.Fatalf("frontier count %d, want %d", f.Count(), i+1)
		}
	}
}

// TestFrontierOf matches the incremental frontier.
func TestFrontierOf(t *testing.T) {
	tab := tableOf(13)
	if !bytes.Equal(FrontierOf(tab).Root(), Build(tab).Root()) {
		t.Fatal("FrontierOf root differs from Build root")
	}
}

// TestCapMatchesBuild: the incremental cap holds the row of the cap level
// and the root that Build makes of the same leaves, at every leaf count in
// [0, 3 × CapNodes] — across CapNodes and 2 × CapNodes, where the row
// pairs up — and at CapNodes × 2^j ± 1 for j ≤ 3. Every count is held to
// a tree grown leaf by leaf beside it (TestExtendMatchesBuild holds
// Extend to Build); the boundary counts and every 1,000th to Build
// itself.
func TestCapMatchesBuild(t *testing.T) {
	const most = 8*CapNodes + 1
	tab := tableOf(most)
	leaves := make([]byte, 0, most*HashSize)
	for _, tp := range tab.Tuples {
		leaves = AppendLeafHash(leaves, tp)
	}
	boundary := make(map[int]bool)
	for j := 0; j <= 3; j++ {
		boundary[CapNodes<<j-1], boundary[CapNodes<<j+1] = true, true
	}
	c, grown := new(Cap), BuildLeaves(nil)
	for n := 0; n <= most; n++ {
		if n > 0 {
			c.AppendTuple(tab.Tuples[n-1])
			grown.ExtendFlat(leaves[(n-1)*HashSize : n*HashSize])
		}
		if n > 3*CapNodes && !boundary[n] {
			continue
		}
		trees := []*Tree{grown}
		if boundary[n] || n%1000 == 0 {
			trees = append(trees, BuildLeaves(bytes.Clone(leaves[:n*HashSize])))
		}
		for _, tree := range trees {
			if c.Count() != n || !bytes.Equal(c.Row(), tree.row(CapNodes)) || !bytes.Equal(c.Root(), tree.Root()) {
				t.Fatalf("n=%d: cap of %d leaves, %d row bytes, root %x; tree has %d row bytes, root %x",
					n, c.Count(), len(c.Row()), c.Root(), len(tree.row(CapNodes)), tree.Root())
			}
		}
	}
}

// TestVerifiedResultCodecRoundTrip round-trips the verified
// answer.
func TestVerifiedResultCodecRoundTrip(t *testing.T) {
	tab := tableOf(9)
	tree := Build(tab)
	positions := []int{1, 5, 8}
	proof, err := tree.ProveAnswer(positions)
	if err != nil {
		t.Fatal(err)
	}
	in := &VerifiedResult{
		Result:     ph.SelectPositions(tab, positions),
		Root:       tree.Root(),
		Leaves:     9,
		Version:    42,
		Multiproof: proof,
	}
	out, err := DecodeVerifiedResult(wire.NewBuffer(EncodeVerifiedResult(nil, in)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Root, in.Root) || out.Leaves != 9 || out.Version != 42 {
		t.Fatalf("snapshot metadata mangled: %+v", out)
	}
	if len(out.Result.Tuples) != len(positions) {
		t.Fatalf("shape mangled: %d tuples", len(out.Result.Tuples))
	}
	if err := VerifyAnswer(tree.CapRow(), out.Leaves, out.Result.Positions, out.Result.Tuples, out.Multiproof); err != nil {
		t.Fatalf("decoded answer rejected: %v", err)
	}
}

// BenchmarkRootAppend is the acceptance gate for the incremental index:
// serving a fresh root after a small append via Extend vs the seed's
// rebuild-the-whole-tree-per-request shape, at 100k tuples.
func BenchmarkRootAppend(b *testing.B) {
	const n = 100_000
	tab := tableOf(n)
	batch := leavesOf(&ph.EncryptedTable{Tuples: tableOf(8).Tuples})
	b.Run(fmt.Sprintf("extend-%d", n), func(b *testing.B) {
		tree := Build(tab)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Extend(batch)
			_ = tree.Root()
		}
	})
	b.Run(fmt.Sprintf("rebuild-%d", n), func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree := Build(tab)
			_ = tree.Root()
		}
	})
}
