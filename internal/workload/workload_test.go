package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestHospitalMarginals(t *testing.T) {
	const n = 5000
	tab, err := Hospital(HospitalConfig{Patients: n}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != n {
		t.Fatalf("generated %d patients, want %d", tab.Len(), n)
	}
	s := tab.Schema()
	hIdx := s.ColumnIndex("hospital")
	oIdx := s.ColumnIndex("outcome")
	counts := map[int64]int{}
	fatal := 0
	for _, tp := range tab.Tuples() {
		counts[tp[hIdx].Integer()]++
		if tp[oIdx].Str() == OutcomeFatal {
			fatal++
		}
	}
	for h, want := range map[int64]float64{1: 0.2, 2: 0.3, 3: 0.5} {
		got := float64(counts[h]) / n
		if math.Abs(got-want) > 0.03 {
			t.Errorf("hospital %d flow %v, want ≈ %v", h, got, want)
		}
	}
	if got := float64(fatal) / n; math.Abs(got-OutcomeFatalRate) > 0.02 {
		t.Errorf("fatal rate %v, want ≈ %v", got, OutcomeFatalRate)
	}
}

func TestHospitalPerHospitalRates(t *testing.T) {
	tab, err := Hospital(HospitalConfig{
		Patients:            6000,
		FatalRateByHospital: []float64{0.30, 0.05, 0.01},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	inH1, err := relation.Select(tab, relation.Eq{Column: "hospital", Value: relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	fatal1, err := relation.Select(inH1, relation.Eq{Column: "outcome", Value: relation.String(OutcomeFatal)})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(fatal1.Len()) / float64(inH1.Len())
	if math.Abs(got-0.30) > 0.05 {
		t.Fatalf("hospital-1 rate %v, want ≈ 0.30", got)
	}
}

func TestHospitalEnsureName(t *testing.T) {
	tab, err := Hospital(HospitalConfig{Patients: 50, EnsureName: "John"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := relation.Select(tab, relation.Eq{Column: "name", Value: relation.String("John")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("found %d Johns, want exactly 1", res.Len())
	}
}

func TestHospitalDeterministicPerSeed(t *testing.T) {
	a, err := Hospital(HospitalConfig{Patients: 100}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hospital(HospitalConfig{Patients: 100}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different tables")
	}
	c, err := Hospital(HospitalConfig{Patients: 100}, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestHospitalValidation(t *testing.T) {
	if _, err := Hospital(HospitalConfig{Patients: 0}, 1); err == nil {
		t.Fatal("zero patients accepted")
	}
}

func TestEmployeesValid(t *testing.T) {
	tab, err := Employees(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 500 {
		t.Fatalf("generated %d employees", tab.Len())
	}
	// All values must satisfy the schema (Insert enforces) and avoid '#'.
	for _, tp := range tab.Tuples() {
		for _, v := range tp {
			if strings.ContainsRune(v.Encode(), '#') {
				t.Fatalf("generated value contains padding symbol: %v", v)
			}
		}
	}
}

func TestEmployeesZipfSkew(t *testing.T) {
	tab, err := Employees(2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	di := tab.Schema().ColumnIndex("dept")
	for _, tp := range tab.Tuples() {
		counts[tp[di].Str()]++
	}
	// Zipf: the most common department must dominate the least common.
	max, min := 0, tab.Len()
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max < 4*min {
		t.Fatalf("department distribution not skewed: max %d, min %d", max, min)
	}
}

func TestPersonNameFits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		n := PersonName(rng)
		if len(n) > 10 || len(n) == 0 {
			t.Fatalf("name %q out of bounds", n)
		}
	}
}

func TestUniformInts(t *testing.T) {
	tab, err := UniformInts(200, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tab.Tuples() {
		v := tp[0].Integer()
		if v < 0 || v >= 1000 {
			t.Fatalf("value %d outside domain", v)
		}
	}
}

func TestQueryMixHasHits(t *testing.T) {
	tab, err := Employees(100, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range QueryMix(tab, 50, 12) {
		res, err := relation.Select(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("query %s has no hits", q)
		}
	}
}
