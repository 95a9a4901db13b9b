package core

import (
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/swp"
)

// newTestPH builds a PH over the paper's employee schema with a fresh key.
func newTestPH(t *testing.T, opts Options) *PH {
	t.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatalf("RandomKey: %v", err)
	}
	p, err := New(key, empSchema(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func empSchema() *relation.Schema {
	return relation.MustSchema("emp",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 10},
		relation.Column{Name: "dept", Type: relation.TypeString, Width: 5},
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 5},
	)
}

func empTable(t *testing.T) *relation.Table {
	t.Helper()
	tab := relation.NewTable(empSchema())
	tab.MustInsert(relation.String("Montgomery"), relation.String("HR"), relation.Int(7500))
	tab.MustInsert(relation.String("Ada"), relation.String("IT"), relation.Int(9100))
	tab.MustInsert(relation.String("Grace"), relation.String("HR"), relation.Int(8800))
	tab.MustInsert(relation.String("Alan"), relation.String("R&D"), relation.Int(7500))
	return tab
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	p := newTestPH(t, Options{})
	tab := empTable(t)
	ct, err := p.EncryptTable(tab)
	if err != nil {
		t.Fatalf("EncryptTable: %v", err)
	}
	if len(ct.Tuples) != tab.Len() {
		t.Fatalf("ciphertext has %d tuples, want %d", len(ct.Tuples), tab.Len())
	}
	pt, err := p.DecryptTable(ct)
	if err != nil {
		t.Fatalf("DecryptTable: %v", err)
	}
	if !pt.Equal(tab) {
		t.Fatalf("decrypted table differs from original:\n%v\nvs\n%v", pt, tab)
	}
}

func TestHomomorphicExactSelect(t *testing.T) {
	p := newTestPH(t, Options{})
	tab := empTable(t)
	ct, err := p.EncryptTable(tab)
	if err != nil {
		t.Fatalf("EncryptTable: %v", err)
	}
	for _, q := range []relation.Eq{
		{Column: "name", Value: relation.String("Montgomery")},
		{Column: "dept", Value: relation.String("HR")},
		{Column: "salary", Value: relation.Int(7500)},
		{Column: "dept", Value: relation.String("NONE!")},
	} {
		want, err := relation.Select(tab, q)
		if err != nil {
			t.Fatalf("plaintext select %s: %v", q, err)
		}
		eq, err := p.EncryptQuery(q)
		if err != nil {
			t.Fatalf("EncryptQuery %s: %v", q, err)
		}
		res, err := ph.Apply(ct, eq)
		if err != nil {
			t.Fatalf("Apply %s: %v", q, err)
		}
		got, err := p.DecryptResult(q, res)
		if err != nil {
			t.Fatalf("DecryptResult %s: %v", q, err)
		}
		if !got.Equal(want) {
			t.Errorf("query %s: got\n%v\nwant\n%v", q, got, want)
		}
	}
}

func TestCipherwordsAreDistinct(t *testing.T) {
	p := newTestPH(t, Options{})
	tab := relation.NewTable(empSchema())
	// Identical tuples must still produce distinct cipherwords.
	for i := 0; i < 8; i++ {
		tab.MustInsert(relation.String("Montgomery"), relation.String("HR"), relation.Int(7500))
	}
	ct, err := p.EncryptTable(tab)
	if err != nil {
		t.Fatalf("EncryptTable: %v", err)
	}
	seen := make(map[string]bool)
	for _, etp := range ct.Tuples {
		for _, w := range etp.Words {
			if seen[string(w)] {
				t.Fatalf("repeated cipherword across identical tuples: %x", w)
			}
			seen[string(w)] = true
		}
	}
}

func TestPaddingSymbolRejected(t *testing.T) {
	p := newTestPH(t, Options{})
	tab := relation.NewTable(empSchema())
	tab.MustInsert(relation.String("bad#name"), relation.String("HR"), relation.Int(1))
	if _, err := p.EncryptTable(tab); err == nil {
		t.Fatal("EncryptTable accepted a value containing the padding symbol")
	}
}

// TestRandomPermUniform: the word permutations an encryption run draws —
// drawRun's one crypto/rand read for the run, then shuffle over each
// tuple's share of it — are each of the n! permutations of 3 and of 5
// equally often: a chi-square test over 20,000 and 24,000 draws, failing
// by chance with probability 10⁻⁶, so word order carries nothing of the
// rejection sampling (EncryptTable's tuple order is the same shuffle). At
// this many draws a shuffle that picks j from [0, n) at every step
// instead of [0, i] (9 equally likely paths onto 6 permutations) scores
// ~2,000 against 35.9.
func TestRandomPermUniform(t *testing.T) {
	for _, c := range []struct {
		n, perms, draws int
		critical        float64 // χ² with perms−1 degrees of freedom, upper 10⁻⁶ tail
	}{
		{3, 6, 20_000, 35.89},
		{5, 120, 24_000, 207.20},
	} {
		tc := &tupleCodec{perm: make([]int, c.n)}
		stride := docIDLen + 8*(c.n-1)
		counts := map[string]int{}
		for drawn := 0; drawn < c.draws; drawn += swp.RunDocs {
			rnd, err := tc.drawRun(swp.RunDocs)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < swp.RunDocs && drawn+i < c.draws; i++ {
				if err := shuffle(tc.perm, rnd[i*stride+docIDLen:(i+1)*stride]); err != nil {
					t.Fatal(err)
				}
				counts[fmt.Sprint(tc.perm)]++
			}
		}
		if len(counts) != c.perms {
			t.Fatalf("n=%d: %d distinct permutations drawn, want %d", c.n, len(counts), c.perms)
		}
		want, chi2 := float64(c.draws)/float64(c.perms), 0.0
		for _, k := range counts {
			chi2 += (float64(k) - want) * (float64(k) - want) / want
		}
		t.Logf("n=%d: χ² = %.1f over %d permutations (critical %.1f)", c.n, chi2, c.perms, c.critical)
		if chi2 > c.critical {
			t.Errorf("n=%d: χ² = %.1f exceeds %.1f: permutations are not uniform", c.n, chi2, c.critical)
		}
	}
}
