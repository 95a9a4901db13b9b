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
// one chain of a single BlockPRF batch; SumInto is its k = 1 case. Both
// are the byte form of xorSums, which PRP's rounds run on zero-padded
// blocks.
//
// It instantiates the word-key function f of Song–Wagner–Perrig (32-byte
// output) and the round functions of the Feistel PRP. Like BlockPRF it is
// NOT safe for concurrent use; Clone hands each goroutine its own.
type WidePRF struct {
	f       BlockPRF
	inLen   int
	outLen  int
	tags    int                  // tags per output: 1 on the one-tag path
	ctr     [][BlockPRFSize]byte // ⟨j⟩ in tag j's message blocks; nil on the one-tag path
	mask    [BlockPRFSize]byte   // the bytes of an output's last tag that are output
	in, out [][BlockPRFSize]byte // SumAllInto's inputs and outputs as blocks
}

// NewWidePRF builds the PRF for one key, one input length and one output
// length.
func NewWidePRF(key Key, inputLen, outputLen int) *WidePRF {
	tags := (outputLen + BlockPRFSize - 1) / BlockPRFSize
	if tags >= 1<<(8*wideCounterLen) {
		panic(fmt.Sprintf("crypto: wideprf: a %d-byte output needs %d tags, the counter holds %d", outputLen, tags, 1<<(8*wideCounterLen)-1))
	}
	w := &WidePRF{f: NewBlockPRF(key, inputLen), inLen: inputLen, outLen: outputLen, tags: 1}
	w.mask = LowBytes(outputLen - BlockPRFSize*(max(tags, 1)-1))
	if outputLen > BlockPRFSize {
		w.f.inputLen += wideCounterLen
		w.tags = tags
		mb := messageBlocks(w.f.inputLen)
		w.ctr = make([][BlockPRFSize]byte, tags*mb)
		var msg []byte
		for j := range tags {
			msg = binary.BigEndian.AppendUint16(append(msg[:0], make([]byte, inputLen)...), uint16(j+1))
			loadBlocks(w.ctr[j*mb:(j+1)*mb], msg, 0, len(msg))
		}
	}
	return w
}

// Clone returns an independent evaluator of the same function.
func (w *WidePRF) Clone() *WidePRF {
	return &WidePRF{f: w.f.Clone(), inLen: w.inLen, outLen: w.outLen, tags: w.tags, ctr: w.ctr, mask: w.mask}
}

// SumInto writes the PRF of input into dst, without allocating: SumAllInto
// on one input. Both lengths are the instance's; any other is a bug, as in
// BlockPRF.
func (w *WidePRF) SumInto(dst, input []byte) { w.SumAllInto(dst, input, 1) }

// SumAllInto evaluates the PRF on the k inputs packed back to back in in
// and writes output i to out[i·outLen:(i+1)·outLen]. It allocates only to
// grow its scratch to a k larger than any it met before.
func (w *WidePRF) SumAllInto(out, in []byte, k int) {
	if k < 0 || len(out) != k*w.outLen || len(in) != k*w.inLen {
		panic(fmt.Sprintf("crypto: wideprf: %d input and %d output bytes for %d inputs on a PRF of %d-byte inputs and %d-byte outputs", len(in), len(out), k, w.inLen, w.outLen))
	}
	ib := messageBlocks(w.inLen)
	inb, outb := grow(&w.in, k*ib), grow(&w.out, k*w.tags)
	for i := range k {
		loadBlocks(inb[i*ib:(i+1)*ib], in, i*w.inLen, w.inLen)
	}
	w.SumBlocks(outb, inb, k)
	for i := range k {
		storeBlocks(out, i*w.outLen, w.outLen, outb[i*w.tags:(i+1)*w.tags])
	}
}

// SumBlocks is SumAllInto on blocks: input i is the zero-padded blocks
// in[i·ib:(i+1)·ib], ib = ⌈inLen/16⌉, and output i goes to the
// zero-padded blocks out[i·t:(i+1)·t], t = ⌈outLen/16⌉ — for f, a key's
// two halves, the form ExpandKeys takes.
func (w *WidePRF) SumBlocks(out, in [][BlockPRFSize]byte, k int) {
	if k < 0 || len(in) != k*messageBlocks(w.inLen) || len(out) != k*w.tags {
		panic(fmt.Sprintf("crypto: wideprf: %d input and %d output blocks for %d inputs on a PRF of %d-byte inputs and %d-byte outputs", len(in), len(out), k, w.inLen, w.outLen))
	}
	if w.tags > 1 && len(w.ctr) == w.tags {
		// Every tag is one block, AES(input ⊕ ⟨j⟩), MACed where it goes.
		for i := range k {
			for j, ctr := range w.ctr {
				t := &out[i*w.tags+j]
				*t = in[i]
				XORBlock(t, &ctr)
			}
		}
		w.f.aes.EncryptBlocks(out)
		for i := w.tags - 1; i < len(out); i += w.tags {
			ANDBlock(&out[i], &w.mask)
		}
		return
	}
	clear(out)
	w.xorSums(out, in, k)
}

// xorSums XORs the PRF of each of k inputs into its output. Input i is
// the zero-padded blocks in[i·ib:(i+1)·ib], ib = ⌈inLen/16⌉, and output
// i the blocks out[i·tags:(i+1)·tags], of which only the first outLen
// bytes change: the zero padding of a half stays zero, which is what
// lets PRP's rounds run on blocks from the first to the last.
func (w *WidePRF) xorSums(out, in [][BlockPRFSize]byte, k int) {
	msg, tags := in[:k*messageBlocks(w.inLen)], grow(&w.f.tag, k*w.tags)
	if w.tags > 1 {
		// Tag j of input i MACs input‖⟨j+1⟩: the input's blocks, one more
		// where the counter spills past them, XORed with the counter's.
		ib, mb := messageBlocks(w.inLen), messageBlocks(w.f.inputLen)
		msg = grow(&w.f.msg, k*w.tags*mb)
		for i := range k {
			for j := range w.tags {
				for b := range mb {
					m := &msg[(i*w.tags+j)*mb+b]
					*m = [BlockPRFSize]byte{}
					if b < ib {
						*m = in[i*ib+b]
					}
					XORBlock(m, &w.ctr[j*mb+b])
				}
			}
		}
	}
	w.f.chains(tags, msg)
	for i := 0; i < len(tags); i += w.tags {
		t := tags[i : i+w.tags]
		ANDBlock(&t[len(t)-1], &w.mask)
		for j := range t {
			XORBlock(&out[i+j], &t[j])
		}
	}
}
