package crypto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refWidePRF is the definition the implementation must equal, written on
// the reference CBC-MAC: one truncated tag of the input for an output of at
// most one block, the concatenated tags of input‖⟨j⟩, j = 1, 2, …, beyond.
func refWidePRF(t *testing.T, key Key, input []byte, outLen int) []byte {
	t.Helper()
	if outLen <= 16 {
		return refCBCMAC(t, key, input)[:outLen]
	}
	var out []byte
	for j := uint16(1); len(out) < outLen; j++ {
		msg := binary.BigEndian.AppendUint16(append([]byte(nil), input...), j)
		out = append(out, refCBCMAC(t, key, msg)...)
	}
	return out[:outLen]
}

func TestWidePRFMatchesReference(t *testing.T) {
	key := testKey(31)
	for _, inLen := range []int{1, 9, 14, 15, 16, 17, 40} {
		input := make([]byte, inLen)
		for i := range input {
			input[i] = byte(5*i + inLen)
		}
		for _, outLen := range []int{1, 16, 17, 32, 33} {
			want := refWidePRF(t, key, input, outLen)
			f := NewWidePRF(key, inLen, outLen)
			for _, g := range []*WidePRF{f, f, f.Clone()} { // twice: the scratch is reset per call
				got := make([]byte, outLen)
				g.SumInto(got, input)
				if !bytes.Equal(got, want) {
					t.Fatalf("input %d bytes, output %d: got %x, want %x", inLen, outLen, got, want)
				}
			}
		}
	}
}

// TestWidePRFRejectsOtherLengths: one key MACs messages of one length only
// if both lengths are the instance's, so the type enforces both.
func TestWidePRFRejectsOtherLengths(t *testing.T) {
	narrow, wide := NewWidePRF(testKey(32), 9, 16), NewWidePRF(testKey(32), 9, 32)
	expectPanics(t, map[string]func(){
		"narrow, short input":    func() { narrow.SumInto(make([]byte, 16), make([]byte, 8)) },
		"narrow, long input":     func() { narrow.SumInto(make([]byte, 16), make([]byte, 10)) },
		"narrow, short output":   func() { narrow.SumInto(make([]byte, 15), make([]byte, 9)) },
		"narrow, wide output":    func() { narrow.SumInto(make([]byte, 32), make([]byte, 9)) },
		"wide, short input":      func() { wide.SumInto(make([]byte, 32), make([]byte, 8)) },
		"wide, long input":       func() { wide.SumInto(make([]byte, 32), make([]byte, 11)) },
		"wide, narrow output":    func() { wide.SumInto(make([]byte, 16), make([]byte, 9)) },
		"wide, wider output":     func() { wide.SumInto(make([]byte, 33), make([]byte, 9)) },
		"more tags than ⟨j⟩ has": func() { NewWidePRF(testKey(32), 9, 16<<16) },
	})
}

func TestWidePRFSumIntoZeroAllocs(t *testing.T) {
	for _, outLen := range []int{8, 16, 17, 32, 50} {
		f := NewWidePRF(testKey(33), 9, outLen)
		dst, input := make([]byte, outLen), make([]byte, 9)
		if allocs := testing.AllocsPerRun(200, func() { f.SumInto(dst, input) }); allocs != 0 {
			t.Fatalf("SumInto of %d-byte outputs allocates %v objects per run, want 0", outLen, allocs)
		}
	}
}
