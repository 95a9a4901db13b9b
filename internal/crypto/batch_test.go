package crypto

import (
	"bytes"
	"testing"
)

// batchInput is k inputs of n bytes, packed: byte j of input i is
// 13i + 7j + n.
func batchInput(k, n int) []byte {
	b := make([]byte, k*n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			b[i*n+j] = byte(13*i + 7*j + n)
		}
	}
	return b
}

// TestSumAllIsSumInto: BlockPRF's and WidePRF's batch forms compute, input
// for input, what k one-input calls compute — at batch sizes 0 to 40 (past
// AES256's eight-block groups and its tails), on one-block and multi-block
// chains, narrow and wide outputs, on every path AES256 can take — and a
// batch no larger than one already met allocates nothing.
func TestSumAllIsSumInto(t *testing.T) {
	for name, asm := range paths() {
		onPath(asm, func() {
			for _, n := range []int{0, 5, 9, 16, 17, 40} {
				for _, w := range []int{0, 2, 16} {
					f := NewBlockPRF(testKey(51), n)
					for _, k := range []int{0, 1, 3, 8, 9, 40} {
						in, got := batchInput(k, n), make([]byte, k*w)
						f.SumAllInto(got, in, k)
						one := NewBlockPRF(testKey(51), n)
						for i := 0; i < k; i++ {
							want := make([]byte, w)
							one.SumInto(want, in[i*n:(i+1)*n])
							if !bytes.Equal(got[i*w:(i+1)*w], want) {
								t.Fatalf("%s: BlockPRF on %d bytes, %d-byte outputs, batch of %d: input %d gave %x, SumInto %x", name, n, w, k, i, got[i*w:(i+1)*w], want)
							}
						}
						if allocs := testing.AllocsPerRun(20, func() { f.SumAllInto(got, in, k) }); allocs != 0 {
							t.Fatalf("%s: BlockPRF batch of %d allocates %v objects", name, k, allocs)
						}
					}
				}
				for _, out := range []int{5, 16, 21, KeySize} {
					g := NewWidePRF(testKey(52), n, out)
					for _, k := range []int{0, 1, 3, 8, 9, 40} {
						in, got := batchInput(k, n), make([]byte, k*out)
						g.SumAllInto(got, in, k)
						for i := 0; i < k; i++ {
							want := make([]byte, out)
							NewWidePRF(testKey(52), n, out).SumInto(want, in[i*n:(i+1)*n])
							if !bytes.Equal(got[i*out:(i+1)*out], want) {
								t.Fatalf("%s: WidePRF on %d bytes, %d-byte outputs, batch of %d: input %d gave %x, SumInto %x", name, n, out, k, i, got[i*out:(i+1)*out], want)
							}
						}
						if allocs := testing.AllocsPerRun(20, func() { g.SumAllInto(got, in, k) }); allocs != 0 {
							t.Fatalf("%s: WidePRF batch of %d allocates %v objects", name, k, allocs)
						}
					}
				}
			}
		})
	}
}

// TestPRPAllIsInto: EncryptAllInto and DecryptAllInto permute each string
// of a batch as EncryptInto and DecryptInto do, in place too, and invert
// each other, at word lengths with one-block and wide round functions.
func TestPRPAllIsInto(t *testing.T) {
	for name, asm := range paths() {
		onPath(asm, func() {
			for _, n := range []int{2, 11, 17, 42} {
				p, err := NewPRP(testKey(53), n)
				if err != nil {
					t.Fatal(err)
				}
				one := p.Clone()
				for _, k := range []int{0, 1, 3, 9, 40} {
					src := batchInput(k, n)
					enc := make([]byte, k*n)
					p.EncryptAllInto(enc, src, k)
					for i := 0; i < k; i++ {
						want := make([]byte, n)
						one.EncryptInto(want, src[i*n:(i+1)*n])
						if !bytes.Equal(enc[i*n:(i+1)*n], want) {
							t.Fatalf("%s: n=%d, batch of %d: string %d encrypted to %x, EncryptInto %x", name, n, k, i, enc[i*n:(i+1)*n], want)
						}
						one.DecryptInto(want, want)
						if !bytes.Equal(want, src[i*n:(i+1)*n]) {
							t.Fatalf("%s: n=%d: DecryptInto does not invert", name, n)
						}
					}
					p.DecryptAllInto(enc, enc, k) // in place
					if !bytes.Equal(enc, src) {
						t.Fatalf("%s: n=%d, batch of %d: DecryptAllInto gave %x, want %x", name, n, k, enc, src)
					}
					if allocs := testing.AllocsPerRun(20, func() { p.DecryptAllInto(enc, src, k) }); allocs != 0 {
						t.Fatalf("%s: n=%d: a batch of %d allocates %v objects", name, n, k, allocs)
					}
				}
			}
		})
	}
}

func TestBatchRejectsOtherLengths(t *testing.T) {
	f, g := NewBlockPRF(testKey(54), 9), NewWidePRF(testKey(54), 9, KeySize)
	p, _ := NewPRP(testKey(54), 8)
	expectPanics(t, map[string]func(){
		"BlockPRF, short batch":    func() { f.SumAllInto(make([]byte, 4), make([]byte, 17), 2) },
		"BlockPRF, ragged outputs": func() { f.SumAllInto(make([]byte, 5), make([]byte, 18), 2) },
		"BlockPRF, negative k":     func() { f.SumAllInto(nil, nil, -1) },
		"WidePRF, short batch":     func() { g.SumAllInto(make([]byte, 64), make([]byte, 17), 2) },
		"WidePRF, short outputs":   func() { g.SumAllInto(make([]byte, 63), make([]byte, 18), 2) },
		"PRP, short batch":         func() { p.EncryptAllInto(make([]byte, 16), make([]byte, 15), 2) },
		"PRP, short dst":           func() { p.DecryptAllInto(make([]byte, 15), make([]byte, 16), 2) },
	})
}
