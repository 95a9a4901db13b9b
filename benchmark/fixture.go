package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Fixture geometry. Salaries fall on 198 bands so an exact select on
// salary returns ~N/198 tuples (a mid-size, repeatable "hot" answer),
// while names draw from workload.PersonName's 15,000-name space so a
// select on name returns 0–3 tuples (a selective "cold" key; the cold
// selects use the names of exactly one tuple).
const (
	salaryBands = 198
	salaryBase  = 1000
	salaryStep  = 500

	// insertBatch is the tuple count of every DB.Insert in every workload.
	insertBatch = 4

	// freshStep is the salary grid of tuples inserted during a run: 25
	// times finer than the bands (the 5-digit column has no room for a
	// wider range), so 1 in 25 of them lands on a band some select reads.
	// A workload that alternates Insert(4) with a select adds a tuple to
	// its 20,000 every half millisecond; drawn from the 198 bands alone
	// they doubled its answers in size, and its calls in duration,
	// between the first slice of a measured phase and the last, and the
	// calm quartile of the slices then measured where in the phase the
	// box happened to be calm. As it is, answers grow by about 4% over a
	// phase, and the reads still have to find fresh tuples.
	freshStep = salaryStep / 25
)

// userBytesPerTuple is the plaintext size of one emp tuple: the sum of
// the schema's column widths. It is the denominator of
// log_bytes_per_user_byte.
func userBytesPerTuple(s *relation.Schema) int {
	n := 0
	for _, c := range s.Columns {
		n += c.Width
	}
	return n
}

// masterKey derives the scheme key from the seed: a benchmark run must
// repeat, so it never draws a random key. (KeyFromBytes keeps only the
// first 32 bytes of a longer input, hence the hash.)
func masterKey(seed int64) crypto.Key {
	sum := sha256.Sum256([]byte(fmt.Sprintf("repro/benchmark master key, seed %d", seed)))
	return crypto.KeyFromBytes(sum[:])
}

// newScheme builds one client's key-holding scheme instance. Every
// client gets its own (same key): real clients are separate processes.
func newScheme(seed int64) (*core.PH, error) {
	return core.New(masterKey(seed), workload.EmployeeSchema(), core.Options{})
}

// gen is the seeded data generator. Each purpose (a table, a client's
// op stream) takes its own gen from a derived seed, so what one stream
// draws never shifts another.
type gen struct {
	rng  *rand.Rand
	dept *rand.Zipf
}

func newGen(seed int64, stream int) *gen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	return &gen{rng: rng, dept: rand.NewZipf(rng, 1.3, 1, uint64(len(workload.Departments)-1))}
}

func bandSalary(band int) relation.Value {
	return relation.Int(int64(salaryBase + salaryStep*band))
}

// tuple draws one emp tuple: PersonName, Zipf department, and a salary
// uniform on the freshStep grid (table deals an initial table's salaries
// over the 198 bands instead).
func (g *gen) tuple() relation.Tuple {
	return relation.Tuple{
		relation.String(workload.PersonName(g.rng)),
		relation.String(workload.Departments[g.dept.Uint64()]),
		relation.Int(int64(salaryBase + freshStep*g.rng.Intn(salaryBands*salaryStep/freshStep))),
	}
}

func (g *gen) tuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = g.tuple()
	}
	return out
}

// table draws the n tuples of an initial table. Unlike a stream of
// inserts, it deals the salary bands out evenly (each gets n/198 tuples,
// give or take one), so that the size of a hot answer — and with it
// every byte, allocation and latency figure of the hot workloads — does
// not depend on the seed.
func (g *gen) table(n int) []relation.Tuple {
	out := g.tuples(n)
	for i, slot := range g.rng.Perm(n) {
		out[i][2] = bandSalary(slot % salaryBands)
	}
	return out
}

// tableOf builds a relation over the emp schema from generated tuples.
func tableOf(tuples []relation.Tuple) *relation.Table {
	t := relation.NewTable(workload.EmployeeSchema())
	for _, tp := range tuples {
		if err := t.Insert(tp); err != nil {
			panic(fmt.Sprintf("benchmark: generated tuple rejected by its own schema: %v", err))
		}
	}
	return t
}

// zipfBands returns a sampler of band indices in [0, bands), Zipf(1.1):
// band 0 is the hottest.
func (g *gen) zipfBands(bands int) func() int {
	z := rand.NewZipf(g.rng, 1.1, 1, uint64(bands-1))
	return func() int { return int(z.Uint64()) }
}

// absentName returns the i-th name that PersonName can never produce
// (its base is not in PersonName's list), so a select on it has an
// empty plaintext answer whatever the table holds.
func absentName(i int) string { return fmt.Sprintf("Zed%06d", i) }

// digest identifies a multiset of tuples: how many, and the wrapping sum
// of their hashes. Two answers with equal digests are the same multiset
// up to a 2^-64 collision.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(h uint64) { d.n++; d.sum += h }

// tupleHash is FNV-1a over the tuple's values, written out by hand so
// it never allocates: checking an answer must cost the measured loop
// next to nothing.
func tupleHash(tp relation.Tuple) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	for _, v := range tp {
		if v.Type() == relation.TypeInt {
			mix('i')
			for x, k := uint64(v.Integer()), 0; k < 8; k++ {
				mix(byte(x >> (8 * k)))
			}
			continue
		}
		mix('s')
		for s, k := v.Str(), 0; k < len(s); k++ {
			mix(s[k])
		}
		mix(0xff)
	}
	return h
}

func digestOf(t *relation.Table) digest {
	var d digest
	for _, tp := range t.Tuples() {
		d.add(tupleHash(tp))
	}
	return d
}

// valueKey indexes one (column, value) pair without allocating on lookup.
type valueKey struct {
	col int
	s   string
	i   int64
}

func keyOf(col int, v relation.Value) valueKey {
	if v.Type() == relation.TypeInt {
		return valueKey{col: col, i: v.Integer()}
	}
	return valueKey{col: col, s: v.Str()}
}

// model is the plaintext oracle for one outsourced table: the relation
// itself plus a per-(column, value) index, so the expected answer to an
// exact select costs O(answer) instead of relation.Select's O(table) —
// the check runs inside the closed loop, on the same two cores as the
// system under test. audit ties the index back to relation.Select.
type model struct {
	t      *relation.Table
	hashes []uint64
	index  map[valueKey][]int
}

func newModel(t *relation.Table) *model {
	m := &model{t: tableOf(nil), index: make(map[valueKey][]int)}
	m.insert(t.Tuples())
	return m
}

// insert mirrors an acknowledged DB.Insert (or the initial upload).
func (m *model) insert(tuples []relation.Tuple) {
	for _, tp := range tuples {
		if err := m.t.Insert(tp); err != nil {
			panic(fmt.Sprintf("benchmark: generated tuple rejected by its own schema: %v", err))
		}
		i := len(m.hashes)
		m.hashes = append(m.hashes, tupleHash(tp))
		for col, v := range tp {
			k := keyOf(col, v)
			m.index[k] = append(m.index[k], i)
		}
	}
}

// expect returns the digest of σ_{eqs[0] ∧ eqs[1] ∧ …}(model): it walks
// the shortest of the conjuncts' index lists and filters by the rest.
func (m *model) expect(eqs []relation.Eq) digest {
	var cols [4]int // no workload sends a longer conjunction
	s := m.t.Schema()
	driver := []int(nil)
	for i, eq := range eqs {
		cols[i] = s.ColumnIndex(eq.Column)
		if list := m.index[keyOf(cols[i], eq.Value)]; i == 0 || len(list) < len(driver) {
			driver = list
		}
	}
	var d digest
next:
	for _, i := range driver {
		tp := m.t.Tuple(i)
		for k, eq := range eqs {
			if !tp[cols[k]].Equal(eq.Value) {
				continue next
			}
		}
		d.add(m.hashes[i])
	}
	return d
}

// audit recomputes the answer with relation.Select — Definition 1.1's
// right-hand side — and compares it with what the index predicts.
func (m *model) audit(eqs []relation.Eq) error {
	preds := make([]relation.Pred, len(eqs))
	for i, eq := range eqs {
		preds[i] = eq
	}
	want, err := relation.Select(m.t, relation.And{Preds: preds})
	if err != nil {
		return err
	}
	if got := m.expect(eqs); got != digestOf(want) {
		return fmt.Errorf("oracle index disagrees with relation.Select on %v: %+v vs %+v", eqs, got, digestOf(want))
	}
	return nil
}

// singleNames returns, in first-seen order, the names exactly one tuple
// of the table carries (about a quarter of N = 20,000): the present
// keys of the cold selects. With names of 1 to 3 tuples the bytes and
// allocations of a cold workload's tiny answers depended on which names
// the seed happened to deal it.
func singleNames(t *relation.Table) []string {
	count := make(map[string]int)
	for _, tp := range t.Tuples() {
		count[tp[0].Str()]++
	}
	var out []string
	for _, tp := range t.Tuples() {
		if n := tp[0].Str(); count[n] == 1 {
			out = append(out, n)
		}
	}
	return out
}

func nameEq(name string) relation.Eq {
	return relation.Eq{Column: "name", Value: relation.String(name)}
}

func bandEq(band int) relation.Eq {
	return relation.Eq{Column: "salary", Value: bandSalary(band)}
}

func deptEq(dept int) relation.Eq {
	return relation.Eq{Column: "dept", Value: relation.String(workload.Departments[dept])}
}
