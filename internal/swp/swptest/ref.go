// Package swptest is a textbook reference of the final Song–Wagner–Perrig
// scheme as internal/swp instantiates it, for differential tests of
// internal/swp and internal/core. Every primitive is evaluated straight
// from its definition, one crypto/aes block call at a time: no batching,
// no scratch reuse, no memo. Only tests import it.
package swptest

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"repro/internal/crypto"
)

// Ref is one scheme instance: the stream key K, the word-key function's
// key k' and the four round keys of the pre-encryption E, derived from
// the master key exactly as swp.New derives them.
type Ref struct {
	n, m   int
	stream cipher.Block
	f      cipher.Block
	rounds [4]cipher.Block
}

// New returns the reference for words of n bytes with m-byte checksums.
func New(master crypto.Key, n, m int) *Ref {
	root := crypto.NewPRF(master)
	pre := crypto.NewPRF(root.DeriveKey("swp/pre-encryption", nil))
	r := &Ref{n: n, m: m, stream: block(root.DeriveKey("swp/stream", nil)), f: block(root.DeriveKey("swp/f", nil))}
	for i := range r.rounds {
		r.rounds[i] = block(pre.DeriveKey(fmt.Sprintf("prp/round/%d", i), nil))
	}
	return r
}

func block(k crypto.Key) cipher.Block {
	b, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err)
	}
	return b
}

// cbcMAC is CBC-MAC of msg zero-padded to whole blocks (at least one),
// from a zero IV.
func cbcMAC(b cipher.Block, msg []byte) []byte {
	s := make([]byte, aes.BlockSize)
	for first := true; first || len(msg) > 0; first = false {
		n := min(aes.BlockSize, len(msg))
		for i := 0; i < n; i++ {
			s[i] ^= msg[i]
		}
		b.Encrypt(s, s)
		msg = msg[n:]
	}
	return s
}

// prf is crypto.WidePRF's function: the CBC-MAC of msg cut to out bytes,
// or for out > 16 the tags of msg‖⟨j⟩, j = 1, 2, …, concatenated and cut.
func prf(b cipher.Block, msg []byte, out int) []byte {
	if out <= aes.BlockSize {
		return cbcMAC(b, msg)[:out]
	}
	var r []byte
	for j := 1; len(r) < out; j++ {
		r = append(r, cbcMAC(b, binary.BigEndian.AppendUint16(append([]byte(nil), msg...), uint16(j)))...)
	}
	return r[:out]
}

func xor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// Stream is S_i for position pos of document docID: block b is the
// CBC-MAC under K of the 32-byte message docID‖⟨pos·nb + b⟩, nb the
// stream's block count.
func (r *Ref) Stream(docID []byte, pos uint64) []byte {
	nm := r.n - r.m
	nb := (nm + aes.BlockSize - 1) / aes.BlockSize
	var s []byte
	for b := 0; b < nb; b++ {
		msg := append(append([]byte(nil), docID...), make([]byte, 8)...)
		msg = binary.BigEndian.AppendUint64(msg, pos*uint64(nb)+uint64(b))
		s = append(s, cbcMAC(r.stream, msg)...)
	}
	return s[:nm]
}

// feistel is the pre-encryption E, or E⁻¹: four rounds mapping (l, r) to
// (r, l ⊕ F_i(r)), l the first ⌊n/2⌋ bytes.
func (r *Ref) feistel(w []byte, inverse bool) []byte {
	l, rt := w[:r.n/2], w[r.n/2:]
	for i := 0; i < 4; i++ {
		if inverse {
			l, rt = xor(rt, prf(r.rounds[3-i], l, len(rt))), l
		} else {
			l, rt = rt, xor(l, prf(r.rounds[i], rt, len(l)))
		}
	}
	return append(append([]byte(nil), l...), rt...)
}

// mask is T_i's checksum part: F_{k_i}(S_i), k_i = f_{k'}(L_i).
func (r *Ref) mask(l, s []byte) []byte {
	return cbcMAC(block(crypto.Key(prf(r.f, l, crypto.KeySize))), s)[:r.m]
}

// check refuses what swp.Codec refuses.
func (r *Ref) check(docID, w []byte) error {
	if len(docID) != aes.BlockSize || len(w) != r.n {
		return fmt.Errorf("swptest: %d-byte document identifier, %d-byte word", len(docID), len(w))
	}
	return nil
}

// EncryptWord is C_i = E(W_i) ⊕ ⟨S_i, F_{k_i}(S_i)⟩.
func (r *Ref) EncryptWord(docID []byte, pos uint64, w []byte) ([]byte, error) {
	if err := r.check(docID, w); err != nil {
		return nil, err
	}
	x, s := r.feistel(w, false), r.Stream(docID, pos)
	return xor(x, append(s, r.mask(x[:len(s)], s)...)), nil
}

// X recovers X_i = ⟨L_i, R_i⟩ from a cipherword: L_i = C_i^L ⊕ S_i, then
// R_i = C_i^R ⊕ F_{k_i}(S_i).
func (r *Ref) X(docID []byte, pos uint64, c []byte) ([]byte, error) {
	if err := r.check(docID, c); err != nil {
		return nil, err
	}
	s := r.Stream(docID, pos)
	l := xor(c[:len(s)], s)
	return append(l, xor(c[len(s):], r.mask(l, s))...), nil
}

// DecryptWord is W_i = E⁻¹(X_i).
func (r *Ref) DecryptWord(docID []byte, pos uint64, c []byte) ([]byte, error) {
	x, err := r.X(docID, pos, c)
	if err != nil {
		return nil, err
	}
	return r.feistel(x, true), nil
}

// Trapdoor is ⟨X, k⟩ = ⟨E(W), f_{k'}(L)⟩.
func (r *Ref) Trapdoor(w []byte) (x, k []byte) {
	x = r.feistel(w, false)
	return x, prf(r.f, x[:r.n-r.m], crypto.KeySize)
}
