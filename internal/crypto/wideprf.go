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
// SumAllInto evaluates it on k inputs at once, every tag of every input
// one chain of a single BlockPRF batch; SumInto is its k = 1 case.
//
// It instantiates the word-key function f of Song–Wagner–Perrig (32-byte
// output) and the round functions of the Feistel PRP. Like BlockPRF it is
// NOT safe for concurrent use; Clone hands each goroutine its own.
type WidePRF struct {
	f      BlockPRF
	outLen int
	tags   int    // tags per output: 1 on the one-tag path
	msg    []byte // the messages input‖⟨j⟩ of a batch; nil on the one-tag path
}

// NewWidePRF builds the PRF for one key, one input length and one output
// length.
func NewWidePRF(key Key, inputLen, outputLen int) *WidePRF {
	if outputLen <= BlockPRFSize {
		return &WidePRF{f: NewBlockPRF(key, inputLen), outLen: outputLen, tags: 1}
	}
	tags := (outputLen + BlockPRFSize - 1) / BlockPRFSize
	if tags >= 1<<(8*wideCounterLen) {
		panic(fmt.Sprintf("crypto: wideprf: a %d-byte output needs %d tags, the counter holds %d", outputLen, tags, 1<<(8*wideCounterLen)-1))
	}
	return &WidePRF{
		f:      NewBlockPRF(key, inputLen+wideCounterLen),
		outLen: outputLen,
		tags:   tags,
		msg:    make([]byte, tags*(inputLen+wideCounterLen)),
	}
}

// Clone returns an independent evaluator of the same function.
func (w *WidePRF) Clone() *WidePRF {
	c := &WidePRF{f: w.f.Clone(), outLen: w.outLen, tags: w.tags}
	if w.tags > 1 {
		c.msg = make([]byte, w.tags*w.f.inputLen)
	}
	return c
}

// SumInto writes the PRF of input into dst, without allocating: SumAllInto
// on one input. Both lengths are the instance's; any other is a bug, as in
// BlockPRF.
func (w *WidePRF) SumInto(dst, input []byte) { w.SumAllInto(dst, input, 1) }

// SumAllInto evaluates the PRF on the k inputs packed back to back in in
// and writes output i to out[i·outLen:(i+1)·outLen]. It allocates only to
// grow its scratch to a k larger than any it met before.
func (w *WidePRF) SumAllInto(out, in []byte, k int) {
	if len(out) != k*w.outLen {
		panic(fmt.Sprintf("crypto: wideprf: %d output bytes for %d inputs on a PRF of %d-byte outputs", len(out), k, w.outLen))
	}
	if w.tags == 1 {
		w.f.SumAllInto(out, in, k)
		return
	}
	ml := w.f.inputLen
	n := ml - wideCounterLen
	if k < 0 || len(in) != k*n {
		panic(fmt.Sprintf("crypto: wideprf: %d input bytes for %d inputs on a PRF of %d-byte inputs", len(in), k, n))
	}
	if len(w.msg) < k*w.tags*ml {
		w.msg = make([]byte, k*w.tags*ml)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < w.tags; j++ {
			m := w.msg[(i*w.tags+j)*ml:][:ml]
			copy(m, in[i*n:(i+1)*n])
			binary.BigEndian.PutUint16(m[n:], uint16(j+1))
		}
	}
	tags := w.f.tags(w.msg[:k*w.tags*ml], k*w.tags)
	for i := 0; i < k; i++ {
		dst := out[i*w.outLen : (i+1)*w.outLen]
		for j := i * w.tags; len(dst) > 0; j++ {
			dst = dst[copy(dst, tags[j][:]):]
		}
	}
}
