package swp

import (
	"fmt"

	"repro/internal/crypto"
)

// This file implements the three precursor schemes from Song, Wagner and
// Perrig's paper, whose documented shortcomings motivate the final scheme
// (the Scheme type in swp.go) that the ICDE'06 construction builds on:
//
//	Scheme I   (basic)               — searching reveals the word *and* the
//	                                   global checksum key, enabling
//	                                   dictionary tests everywhere.
//	Scheme II  (controlled search)   — per-word keys k_W = f_{k'}(W) stop
//	                                   the dictionary attack, but the query
//	                                   still reveals the plaintext word.
//	Scheme III (hidden search)       — searching on the pre-encryption
//	                                   X = E_{k''}(W) hides the word, but
//	                                   ciphertexts are no longer decryptable:
//	                                   the client can recover only the part
//	                                   of X masked by the stream.
//	Final      (scheme IV, swp.go)   — splits X into ⟨L, R⟩ and keys the
//	                                   checksum by L, restoring decryption.
//
// The variants share the final scheme's geometry (Params) so their
// behaviour is directly comparable in tests and ablations. They exist for
// study and ablation only — the construction in internal/core always uses
// the final scheme.

// checksum computes F_{k}(s) of m bytes, through the same crypto.BlockPRF
// the final scheme's Codec and the server-side Matcher evaluate.
func checksum(k crypto.Key, stream []byte, m int) []byte {
	f := make([]byte, m)
	prf := crypto.NewBlockPRF(k, len(stream))
	prf.SumInto(f, stream)
	return f
}

// BasicScheme is SWP Scheme I. Encryption XORs the word with
// ⟨S_i, F_k(S_i)⟩ under a single global checksum key; a search hands the
// server the plaintext word and that key.
type BasicScheme struct {
	params Params
	fKey   crypto.Key  // the single global checksum key
	seed   *crypto.PRF // derives per-document streams
}

// NewBasic derives a Scheme I instance.
func NewBasic(master crypto.Key, p Params) (*BasicScheme, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := crypto.NewPRF(master)
	return &BasicScheme{
		params: p,
		fKey:   root.DeriveKey("swp1/f", nil),
		seed:   crypto.NewPRF(root.DeriveKey("swp1/seed", nil)),
	}, nil
}

// Params returns the public parameters.
func (s *BasicScheme) Params() Params { return s.params }

// EncryptDocument encrypts the words of one document.
func (s *BasicScheme) EncryptDocument(docID []byte, words [][]byte) ([][]byte, error) {
	prg := crypto.NewPRG(s.seed.DeriveKey("swp1/stream", docID))
	nm := s.params.streamLen()
	out := make([][]byte, len(words))
	for i, w := range words {
		if len(w) != s.params.WordLen {
			return nil, fmt.Errorf("swp: basic: word %d must be %d bytes, got %d", i, s.params.WordLen, len(w))
		}
		stream := prg.Block(uint64(i), nm)
		f := checksum(s.fKey, stream, s.params.ChecksumLen)
		cw := make([]byte, s.params.WordLen)
		for j := 0; j < nm; j++ {
			cw[j] = w[j] ^ stream[j]
		}
		for j := 0; j < s.params.ChecksumLen; j++ {
			cw[nm+j] = w[nm+j] ^ f[j]
		}
		out[i] = cw
	}
	return out, nil
}

// BasicTrapdoor is what a Scheme I search discloses: the plaintext word
// itself and the global checksum key — the two leaks the later schemes
// remove.
type BasicTrapdoor struct {
	// Word is the plaintext search word, visible to the server.
	Word []byte
	// FKey is the global checksum key; with it the server can run
	// dictionary tests for any candidate word at any position.
	FKey []byte
}

// NewTrapdoor builds the Scheme I search token.
func (s *BasicScheme) NewTrapdoor(word []byte) (BasicTrapdoor, error) {
	if len(word) != s.params.WordLen {
		return BasicTrapdoor{}, fmt.Errorf("swp: basic: trapdoor word must be %d bytes", s.params.WordLen)
	}
	return BasicTrapdoor{Word: append([]byte(nil), word...), FKey: s.fKey[:]}, nil
}

// BasicMatch is the server-side test for Scheme I: it works for *any*
// candidate word once it holds the key — which is exactly the dictionary
// attack the trapdoor enables (see TestBasicSchemeDictionaryAttack). The
// test is algebraically the final scheme's with ⟨candidate, key⟩ in the
// trapdoor slots, so all variant match tests ride the same Matcher engine.
func BasicMatch(p Params, cipherword, candidate, fKey []byte) bool {
	return NewMatcher(p, Trapdoor{X: candidate, K: fKey}).Match(cipherword)
}

// ControlledScheme is SWP Scheme II: the checksum key is derived per word,
// k_W = f_{k'}(W), so a trapdoor authorises searching for exactly one word
// and nothing else. The query still reveals the plaintext word.
type ControlledScheme struct {
	params Params
	fPRF   *crypto.PRF // k' — derives per-word keys from the plaintext word
	seed   *crypto.PRF
}

// NewControlled derives a Scheme II instance.
func NewControlled(master crypto.Key, p Params) (*ControlledScheme, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := crypto.NewPRF(master)
	return &ControlledScheme{
		params: p,
		fPRF:   crypto.NewPRF(root.DeriveKey("swp2/f", nil)),
		seed:   crypto.NewPRF(root.DeriveKey("swp2/seed", nil)),
	}, nil
}

// Params returns the public parameters.
func (s *ControlledScheme) Params() Params { return s.params }

// wordKey derives k_W = f_{k'}(W).
func (s *ControlledScheme) wordKey(word []byte) crypto.Key {
	return crypto.KeyFromBytes(s.fPRF.Sum(word, crypto.KeySize))
}

// EncryptDocument encrypts the words of one document.
func (s *ControlledScheme) EncryptDocument(docID []byte, words [][]byte) ([][]byte, error) {
	prg := crypto.NewPRG(s.seed.DeriveKey("swp2/stream", docID))
	nm := s.params.streamLen()
	out := make([][]byte, len(words))
	for i, w := range words {
		if len(w) != s.params.WordLen {
			return nil, fmt.Errorf("swp: controlled: word %d must be %d bytes, got %d", i, s.params.WordLen, len(w))
		}
		stream := prg.Block(uint64(i), nm)
		f := checksum(s.wordKey(w), stream, s.params.ChecksumLen)
		cw := make([]byte, s.params.WordLen)
		for j := 0; j < nm; j++ {
			cw[j] = w[j] ^ stream[j]
		}
		for j := 0; j < s.params.ChecksumLen; j++ {
			cw[nm+j] = w[nm+j] ^ f[j]
		}
		out[i] = cw
	}
	return out, nil
}

// ControlledTrapdoor reveals the plaintext word (Scheme II's residual
// leak) plus that word's key — and only that word's.
type ControlledTrapdoor struct {
	// Word is the plaintext search word, still visible to the server.
	Word []byte
	// WordKey is k_W; it is useless for testing any other word.
	WordKey []byte
}

// NewTrapdoor builds the Scheme II search token.
func (s *ControlledScheme) NewTrapdoor(word []byte) (ControlledTrapdoor, error) {
	if len(word) != s.params.WordLen {
		return ControlledTrapdoor{}, fmt.Errorf("swp: controlled: trapdoor word must be %d bytes", s.params.WordLen)
	}
	k := s.wordKey(word)
	return ControlledTrapdoor{Word: append([]byte(nil), word...), WordKey: k[:]}, nil
}

// ControlledMatch is the server-side test for Scheme II.
func ControlledMatch(p Params, cipherword []byte, td ControlledTrapdoor) bool {
	return BasicMatch(p, cipherword, td.Word, td.WordKey)
}

// HiddenScheme is SWP Scheme III: like Scheme II but the server only ever
// sees the deterministic pre-encryption X = E_{k”}(W); queries no longer
// reveal plaintext. The price is decryptability: to strip the checksum
// mask the client would need k_X = f'(X), but X is exactly what it no
// longer knows for a stored ciphertext. RecoverStreamPart shows how far
// the client gets — the first n−m bytes of X — which is the gap the final
// scheme's ⟨L, R⟩ split closes. It evaluates its PRP in place, so unlike
// Scheme it is not safe for concurrent use.
type HiddenScheme struct {
	params Params
	pre    *crypto.PRP
	fPRF   *crypto.PRF
	seed   *crypto.PRF
}

// NewHidden derives a Scheme III instance.
func NewHidden(master crypto.Key, p Params) (*HiddenScheme, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := crypto.NewPRF(master)
	pre, err := crypto.NewPRP(root.DeriveKey("swp3/pre", nil), p.WordLen)
	if err != nil {
		return nil, err
	}
	return &HiddenScheme{
		params: p,
		pre:    pre,
		fPRF:   crypto.NewPRF(root.DeriveKey("swp3/f", nil)),
		seed:   crypto.NewPRF(root.DeriveKey("swp3/seed", nil)),
	}, nil
}

// Params returns the public parameters.
func (s *HiddenScheme) Params() Params { return s.params }

// xKey derives k_X = f'(X) from the whole pre-encrypted word.
func (s *HiddenScheme) xKey(x []byte) crypto.Key {
	return crypto.KeyFromBytes(s.fPRF.Sum(x, crypto.KeySize))
}

// EncryptDocument encrypts the words of one document.
func (s *HiddenScheme) EncryptDocument(docID []byte, words [][]byte) ([][]byte, error) {
	prg := crypto.NewPRG(s.seed.DeriveKey("swp3/stream", docID))
	nm := s.params.streamLen()
	out := make([][]byte, len(words))
	for i, w := range words {
		if len(w) != s.params.WordLen {
			return nil, fmt.Errorf("swp: hidden: word %d must be %d bytes, got %d", i, s.params.WordLen, len(w))
		}
		x, err := s.pre.Encrypt(w)
		if err != nil {
			return nil, err
		}
		stream := prg.Block(uint64(i), nm)
		f := checksum(s.xKey(x), stream, s.params.ChecksumLen)
		cw := make([]byte, s.params.WordLen)
		for j := 0; j < nm; j++ {
			cw[j] = x[j] ^ stream[j]
		}
		for j := 0; j < s.params.ChecksumLen; j++ {
			cw[nm+j] = x[nm+j] ^ f[j]
		}
		out[i] = cw
	}
	return out, nil
}

// NewTrapdoor builds the Scheme III token ⟨X, k_X⟩ — no plaintext inside.
func (s *HiddenScheme) NewTrapdoor(word []byte) (Trapdoor, error) {
	if len(word) != s.params.WordLen {
		return Trapdoor{}, fmt.Errorf("swp: hidden: trapdoor word must be %d bytes", s.params.WordLen)
	}
	x, err := s.pre.Encrypt(word)
	if err != nil {
		return Trapdoor{}, err
	}
	k := s.xKey(x)
	return Trapdoor{X: x, K: k[:]}, nil
}

// HiddenMatch is the server-side test for Scheme III.
func HiddenMatch(p Params, cipherword []byte, td Trapdoor) bool {
	return BasicMatch(p, cipherword, td.X, td.K)
}

// RecoverStreamPart is the best the Scheme III client can do towards
// decryption: XOR off the stream and recover the first n−m bytes of the
// pre-encrypted word. The remaining m bytes stay masked by F_{k_X}(S_i),
// and k_X depends on all of X — circularly including those masked bytes.
// The final scheme breaks this circle by keying the checksum on the
// unmasked left part only.
func (s *HiddenScheme) RecoverStreamPart(docID []byte, pos uint64, cipherword []byte) ([]byte, error) {
	if len(cipherword) != s.params.WordLen {
		return nil, fmt.Errorf("swp: hidden: cipherword must be %d bytes", s.params.WordLen)
	}
	prg := crypto.NewPRG(s.seed.DeriveKey("swp3/stream", docID))
	nm := s.params.streamLen()
	stream := prg.Block(pos, nm)
	left := make([]byte, nm)
	for i := range left {
		left[i] = cipherword[i] ^ stream[i]
	}
	return left, nil
}
