package crypto

import (
	"encoding/binary"
	"fmt"
)

// wideCounterLen is the width of the block counter ⟨j⟩ a wide-output
// WidePRF appends to its input: two bytes, so 65,535 tags.
const wideCounterLen = 2

// WidePRF is BlockPRF with the output length fixed per instance as well,
// which lets the output be wider than one AES block. An output of at most
// BlockPRFSize bytes is BlockPRF's truncated tag of the input; a wider
// one is the concatenation of the tags of input‖⟨j⟩, j = 1, 2, … (⟨j⟩
// big-endian, wideCounterLen bytes), the last one truncated. Either way
// every message MACed under the key has one length — inputLen, or
// inputLen+wideCounterLen — so CBC-MAC is still evaluated only where it
// is a PRF (see BlockPRF), and distinct j give distinct messages, so the
// concatenation is a PRF with the wider range. That is why the output
// length belongs to the instance: one key asked for a narrow and a wide
// output would MAC messages of two lengths.
//
// It instantiates the word-key function f of Song–Wagner–Perrig (32-byte
// output) and the round functions of the Feistel PRP. Like BlockPRF it is
// NOT safe for concurrent use; Clone hands each goroutine its own.
type WidePRF struct {
	f      BlockPRF
	outLen int
	msg    []byte // input‖⟨j⟩ scratch; nil on the one-tag path
}

// NewWidePRF builds the PRF for one key, one input length and one output
// length.
func NewWidePRF(key Key, inputLen, outputLen int) *WidePRF {
	if outputLen <= BlockPRFSize {
		return &WidePRF{f: NewBlockPRF(key, inputLen), outLen: outputLen}
	}
	if tags := (outputLen + BlockPRFSize - 1) / BlockPRFSize; tags >= 1<<(8*wideCounterLen) {
		panic(fmt.Sprintf("crypto: wideprf: a %d-byte output needs %d tags, the counter holds %d", outputLen, tags, 1<<(8*wideCounterLen)-1))
	}
	return &WidePRF{
		f:      NewBlockPRF(key, inputLen+wideCounterLen),
		outLen: outputLen,
		msg:    make([]byte, inputLen+wideCounterLen),
	}
}

// Clone returns an independent evaluator of the same function.
func (w *WidePRF) Clone() *WidePRF {
	c := &WidePRF{f: w.f.Clone(), outLen: w.outLen}
	if w.msg != nil {
		c.msg = make([]byte, len(w.msg))
	}
	return c
}

// SumInto writes the PRF of input into dst, without allocating. Both
// lengths are the instance's; any other is a bug, as in BlockPRF.
func (w *WidePRF) SumInto(dst, input []byte) {
	if len(dst) != w.outLen {
		panic(fmt.Sprintf("crypto: wideprf: %d-byte output on a PRF of %d-byte outputs", len(dst), w.outLen))
	}
	if w.msg == nil {
		w.f.SumInto(dst, input)
		return
	}
	if len(input) != len(w.msg)-wideCounterLen {
		panic(fmt.Sprintf("crypto: wideprf: %d-byte input on a PRF of %d-byte inputs", len(input), len(w.msg)-wideCounterLen))
	}
	copy(w.msg, input)
	ctr := w.msg[len(input):]
	for j := uint16(1); len(dst) > 0; j++ {
		binary.BigEndian.PutUint16(ctr, j)
		tag := dst[:min(BlockPRFSize, len(dst))]
		w.f.SumInto(tag, w.msg)
		dst = dst[len(tag):]
	}
}
