// Package attacks implements the concrete adversaries from the paper: the
// §1 salary-pair distinguisher against deterministic-index schemes, the §2
// passive hospital-inference attack, the §2 active "John" attack, and the
// generic adversary realising Theorem 2.1 against any database PH.
package attacks

import (
	"math/rand"

	"repro/internal/games"
	"repro/internal/relation"
)

// SalarySchema is the two-column schema of the paper's §1 example tables.
func SalarySchema() *relation.Schema {
	return relation.MustSchema("t",
		relation.Column{Name: "id", Type: relation.TypeInt, Width: 3},
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 4},
	)
}

// SalaryTables returns the paper's exact challenge pair:
//
//	table 1: (171,4900) (481,1200)   — distinct salaries
//	table 2: (171,4900) (481,4900)   — equal salaries
func SalaryTables() (*relation.Table, *relation.Table) {
	s := SalarySchema()
	t1 := relation.NewTable(s)
	t1.MustInsert(relation.Int(171), relation.Int(4900))
	t1.MustInsert(relation.Int(481), relation.Int(1200))
	t2 := relation.NewTable(s)
	t2.MustInsert(relation.Int(171), relation.Int(4900))
	t2.MustInsert(relation.Int(481), relation.Int(4900))
	return t1, t2
}

// SalaryPair is the paper's §1 adversary: it submits the two salary tables
// and decides by inspecting the equality pattern of the server-visible
// words. Against any scheme with deterministic index labels (bucketization,
// hash index, deterministic encryption) the second table produces a
// repeated label where the first does not; against the paper's SWP-based
// construction all cipherwords are pseudorandom and the adversary is
// reduced to guessing.
type SalaryPair struct{}

// Name implements games.Adversary.
func (SalaryPair) Name() string { return "salary-pair (§1)" }

// Choose implements games.Adversary.
func (SalaryPair) Choose(*rand.Rand) (*relation.Table, *relation.Table, error) {
	t1, t2 := SalaryTables()
	return t1, t2, nil
}

// Guess implements games.Adversary: "if there are two different weak
// encryptions of the salary attribute, Eve outputs 1; otherwise she
// outputs 2" — generalised to counting repeated words anywhere in the
// ciphertext, which needs no knowledge of the scheme's column order.
func (SalaryPair) Guess(_ *rand.Rand, tr *games.Transcript) (int, error) {
	if repeatedWords(tr) {
		return 1, nil // identical weak encryptions ⇒ table 2 (index 1)
	}
	return 0, nil
}

// repeatedWords reports whether any two word slots across different tuples
// of the ciphertext hold identical bytes.
func repeatedWords(tr *games.Transcript) bool {
	seen := make(map[string]struct{})
	for _, etp := range tr.Ciphertext.Tuples {
		for _, w := range etp.Words {
			k := string(w)
			if _, dup := seen[k]; dup {
				return true
			}
			seen[k] = struct{}{}
		}
	}
	return false
}

// WordLengthPair is the padding-ablation adversary: it submits two tables
// whose values differ only in *length* ("Jo" vs "Jonathan"). Against a
// correctly padded construction every word has the global fixed length and
// the adversary learns nothing; against a hypothetical unpadded variant the
// cipherword lengths differ and the tables are trivially distinguishable.
// It quantifies why the paper's layout pads every value to the width of the
// widest attribute.
type WordLengthPair struct{}

// Name implements games.Adversary.
func (WordLengthPair) Name() string { return "word-length (padding ablation)" }

// Choose implements games.Adversary.
func (WordLengthPair) Choose(*rand.Rand) (*relation.Table, *relation.Table, error) {
	s := relation.MustSchema("t",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 8},
	)
	t0 := relation.NewTable(s)
	t0.MustInsert(relation.String("Jo"))
	t1 := relation.NewTable(s)
	t1.MustInsert(relation.String("Jonathan"))
	return t0, t1, nil
}

// Guess implements games.Adversary: it measures the observable total word
// length. Under the paper's padded layout both tables produce identical
// geometry, so this reduces to a coin flip.
func (WordLengthPair) Guess(rng *rand.Rand, tr *games.Transcript) (int, error) {
	short, long := 0, 0
	for _, etp := range tr.Ciphertext.Tuples {
		for _, w := range etp.Words {
			if len(w) <= 3 { // "Jo" + id, if unpadded
				short++
			} else {
				long++
			}
		}
	}
	if short > 0 && long == 0 {
		return 0, nil
	}
	if long > 0 && short == 0 && wordLen(tr) < 9 {
		return 1, nil
	}
	return rng.Intn(2), nil
}

// wordLen returns the (uniform) word length of the ciphertext, or 0.
func wordLen(tr *games.Transcript) int {
	for _, etp := range tr.Ciphertext.Tuples {
		for _, w := range etp.Words {
			return len(w)
		}
	}
	return 0
}

// ensure interface compliance at compile time.
var (
	_ games.Adversary = SalaryPair{}
	_ games.Adversary = WordLengthPair{}
)
