package games

import (
	"math/rand"
	"testing"

	"repro/internal/crypto"
	"repro/internal/swp"
)

// sealerFactory builds a probabilistic AEAD encryptor per trial.
func sealerFactory() (Encryptor, error) {
	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	s, err := crypto.NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.Seal, nil
}

// prpFactory builds a deterministic (PRP) encryptor per trial — designed
// to lose the game under chosen plaintexts.
func prpFactory() (Encryptor, error) {
	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	p, err := crypto.NewPRP(key, 8)
	if err != nil {
		return nil, err
	}
	return p.Encrypt, nil
}

// swpWordFactory encrypts a fresh word at a fresh position each call,
// modelling how internal/core uses SWP (fresh doc ID per tuple).
func swpWordFactory() (Encryptor, error) {
	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	s, err := swp.New(key, swp.Params{WordLen: 8, ChecksumLen: 2})
	if err != nil {
		return nil, err
	}
	ctr := 0
	return func(pt []byte) ([]byte, error) {
		ctr++
		docID := make([]byte, swp.DocIDLen)
		docID[0], docID[1] = byte(ctr), byte(ctr>>8)
		return s.EncryptWord(docID, 0, pt)
	}, nil
}

var matcher = CiphertextMatcher{
	M0: []byte("salary00"),
	M1: []byte("salary99"),
}

func TestINDDeterministicSchemeLoses(t *testing.T) {
	g := IND{Factory: prpFactory, ChosenPlaintext: true}
	res, err := g.Run(matcher, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() != 1 {
		t.Fatalf("matcher should always beat a deterministic scheme, won %v", res.Rate())
	}
}

func TestINDAEADResists(t *testing.T) {
	g := IND{Factory: sealerFactory, ChosenPlaintext: true}
	res, err := g.Run(matcher, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage() > 0.25 || res.Advantage() < -0.25 {
		t.Fatalf("matcher advantage %v against AES-GCM; expected ≈ 0", res.Advantage())
	}
}

func TestINDSWPWordsResist(t *testing.T) {
	// SWP as used by the construction: fresh document per encryption, so
	// even the chosen-plaintext matcher gains nothing.
	g := IND{Factory: swpWordFactory, ChosenPlaintext: true}
	res, err := g.Run(matcher, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage() > 0.25 || res.Advantage() < -0.25 {
		t.Fatalf("matcher advantage %v against SWP words; expected ≈ 0", res.Advantage())
	}
}

func TestINDWithoutSamplesIsBlind(t *testing.T) {
	// Without chosen-plaintext samples even the deterministic scheme
	// resists the matcher (it has nothing to compare against).
	g := IND{Factory: prpFactory, ChosenPlaintext: false}
	res, err := g.Run(matcher, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage() > 0.25 || res.Advantage() < -0.25 {
		t.Fatalf("sample-less matcher advantage %v; expected ≈ 0", res.Advantage())
	}
}

type badINDAdversary struct{ guess int }

func (badINDAdversary) Name() string { return "bad" }
func (badINDAdversary) ChoosePlaintexts(*rand.Rand) ([]byte, []byte, error) {
	return []byte("x"), []byte("xy"), nil // unequal lengths
}
func (b badINDAdversary) GuessFrom(*rand.Rand, []byte, [2][]byte) (int, error) {
	return b.guess, nil
}

func TestINDValidation(t *testing.T) {
	if _, err := (IND{}).Run(matcher, 10, 1); err == nil {
		t.Fatal("missing factory accepted")
	}
	g := IND{Factory: sealerFactory}
	if _, err := g.Run(matcher, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := g.Run(badINDAdversary{}, 1, 1); err == nil {
		t.Fatal("unequal-length plaintexts accepted — Definition 1.2 step 1 violated")
	}
}
