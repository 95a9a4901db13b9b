package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/sched"
)

// randTable builds a random employee table from quick-generated material,
// avoiding the padding symbol.
func randTable(rng *rand.Rand, rows int) *relation.Table {
	t := relation.NewTable(empSchema())
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ 0123456789.-_"
	randStr := func(maxLen int) string {
		n := rng.Intn(maxLen + 1)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < rows; i++ {
		t.MustInsert(
			relation.String(randStr(10)),
			relation.String(randStr(5)),
			relation.Int(rng.Int63n(199999)-99999),
		)
	}
	return t
}

// TestPropertyRoundTripRandomTables: D(E(R)) = R for random relations, in
// both layout modes: small ones, and tables on both sides of
// encryptThreshold and of 20,000 tuples. From encryptThreshold on,
// EncryptTable fans out over every worker of the process budget, each
// with randomness of its own, so every document ID of the table must
// still be distinct; and every ID, word list and cipherword, cut from a
// run's slabs, must own its bytes (checkOwnsItsBytes).
func TestPropertyRoundTripRandomTables(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, perCol := range []bool{false, true} {
		key, err := crypto.RandomKey()
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(key, empSchema(), Options{PerColumnWidth: perCol})
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64, rowsRaw uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			tab := randTable(rng, int(rowsRaw%20))
			ct, err := p.EncryptTable(tab)
			if err != nil {
				return false
			}
			pt, err := p.DecryptTable(ct)
			if err != nil {
				return false
			}
			return pt.Equal(tab)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("perColumn=%v: %v", perCol, err)
		}
		for _, n := range []int{encryptThreshold - 1, encryptThreshold, encryptThreshold + 1, 20_000} {
			tab := randTable(rand.New(rand.NewSource(int64(n))), n)
			budget := sched.NewBudget(4)
			old := sched.SetProcess(budget)
			ct, err := p.EncryptTable(tab)
			sched.SetProcess(old)
			if err != nil {
				t.Fatal(err)
			}
			want := sched.Stats{}
			if n >= encryptThreshold {
				want = sched.Stats{Acquires: 1, Extras: 3, Releases: 1}
			}
			if st := budget.Stats(); st != want {
				t.Fatalf("perColumn=%v, %d tuples: budget stats %+v, want %+v", perCol, n, st, want)
			}
			pt, err := p.DecryptTable(ct)
			if err != nil {
				t.Fatal(err)
			}
			if !pt.Equal(tab) {
				t.Fatalf("perColumn=%v, %d tuples: D(E(R)) differs from R", perCol, n)
			}
			ids := make(map[string]bool, n)
			for _, etp := range ct.Tuples {
				if len(etp.ID) != docIDLen || ids[string(etp.ID)] {
					t.Fatalf("perColumn=%v, %d tuples: document ID %x repeated or not %d bytes", perCol, n, etp.ID, docIDLen)
				}
				ids[string(etp.ID)] = true
			}
			checkOwnsItsBytes(t, ct)
		}
	}
}

// checkOwnsItsBytes appends to every document ID, word list and
// cipherword of ct and fails unless the rest of ct is unchanged: each must
// be capped at its own length, so that an append reallocates instead of
// writing into its neighbour.
func checkOwnsItsBytes(t *testing.T, ct *ph.EncryptedTable) {
	t.Helper()
	want := make([]ph.EncryptedTuple, len(ct.Tuples))
	for i, etp := range ct.Tuples {
		want[i] = ph.EncryptedTuple{ID: bytes.Clone(etp.ID)}
		for _, w := range etp.Words {
			want[i].Words = append(want[i].Words, bytes.Clone(w))
		}
	}
	for _, etp := range ct.Tuples {
		if grown := append(etp.Words, nil); len(grown) != len(etp.Words)+1 {
			t.Fatal("append lost a word")
		}
		for _, b := range append([][]byte{etp.ID}, etp.Words...) {
			if grown := append(b, 0xa5); grown[len(b)] != 0xa5 {
				t.Fatal("append lost a byte")
			}
		}
	}
	for i, etp := range ct.Tuples {
		same := bytes.Equal(etp.ID, want[i].ID) && len(etp.Words) == len(want[i].Words)
		for j := 0; same && j < len(etp.Words); j++ {
			same = bytes.Equal(etp.Words[j], want[i].Words[j])
		}
		if !same {
			t.Fatalf("tuple %d changed when its neighbours were appended to: %x %x, was %x %x", i, etp.ID, etp.Words, want[i].ID, want[i].Words)
		}
	}
}

// TestPropertyHomomorphismRandomQueries: for random tables and random
// values (present or absent), the filtered homomorphic select equals the
// plaintext select.
func TestPropertyHomomorphismRandomQueries(t *testing.T) {
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(key, empSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randTable(rng, 1+rng.Intn(15))
		ct, err := p.EncryptTable(tab)
		if err != nil {
			return false
		}
		// Query a value from the table half the time, a random absent
		// value otherwise.
		var q relation.Eq
		if rng.Intn(2) == 0 && tab.Len() > 0 {
			tp := tab.Tuple(rng.Intn(tab.Len()))
			col := rng.Intn(3)
			q = relation.Eq{Column: tab.Schema().Columns[col].Name, Value: tp[col]}
		} else {
			q = relation.Eq{Column: "salary", Value: relation.Int(rng.Int63n(99999))}
		}
		want, err := relation.Select(tab, q)
		if err != nil {
			return false
		}
		eq, err := p.EncryptQuery(q)
		if err != nil {
			return false
		}
		res, err := ph.Apply(ct, eq)
		if err != nil {
			return false
		}
		got, err := p.DecryptResult(q, res)
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCiphertextsNeverRepeat: across random tables, no cipherword
// ever repeats — the structural fact that defeats the §1 adversary.
func TestPropertyCiphertextsNeverRepeat(t *testing.T) {
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(key, empSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randTable(rng, 8)
		ct, err := p.EncryptTable(tab)
		if err != nil {
			return false
		}
		for _, etp := range ct.Tuples {
			for _, w := range etp.Words {
				if seen[string(w)] {
					return false
				}
				seen[string(w)] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
