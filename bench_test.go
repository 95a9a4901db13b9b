package repro

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/attacks"
	"repro/internal/authindex"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/games"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/swp"
	"repro/internal/workload"
)

// One benchmark per experiment of DESIGN.md §3. Each iteration regenerates
// the experiment at reduced size; run cmd/experiments for the full tables.

func BenchmarkE1SalaryDistinguisher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE1(40, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2HospitalInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE2(200, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3JohnAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE3(200, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4Theorem21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE4(30, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5FalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE5(20000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE6([]int{500}, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Homomorphism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE7(2, 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8AuthIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE8([]int{1000}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9FrequencyAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE9(300, 3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10VarlenAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE10(200, 30, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11LeakageAccumulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE11(300, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12Communication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE12(300, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the hot paths underlying the experiments.

func benchScheme(b *testing.B) *core.PH {
	b.Helper()
	key, err := crypto.RandomKey()
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.New(key, workload.EmployeeSchema(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchTable(b *testing.B, n int) *relation.Table {
	b.Helper()
	t, err := workload.Employees(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func BenchmarkEncryptTable1k(b *testing.B) {
	s := benchScheme(b)
	t := benchTable(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncryptTable(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Len()), "tuples/op")
}

// BenchmarkEncryptInsertBatch encrypts one 4-tuple batch: the batch
// DB.Insert sends on every insert of every benchmark workload, which
// EncryptTable keeps on the caller's goroutine.
func BenchmarkEncryptInsertBatch(b *testing.B) {
	s := benchScheme(b)
	t := benchTable(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncryptTable(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Len()), "tuples/op")
}

func BenchmarkTrapdoor(b *testing.B) {
	s := benchScheme(b)
	q := relation.Eq{Column: "dept", Value: relation.String("HR")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncryptQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerSearch1k(b *testing.B) {
	s := benchScheme(b)
	t := benchTable(b, 1000)
	ct, err := s.EncryptTable(t)
	if err != nil {
		b.Fatal(err)
	}
	eq, err := s.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String("HR")})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ph.Apply(ct, eq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecryptResult times D and §3's filter on two answer shapes: a
// department of 1,000 employees, and a salary band — hot_read's shape:
// 100 tuples of one salary, the generator's departments and names.
func BenchmarkDecryptResult(b *testing.B) {
	s := benchScheme(b)
	emp := benchTable(b, 1000)
	band := relation.NewTable(emp.Schema())
	for i := 0; i < 100; i++ {
		tp := emp.Tuple(i)
		band.MustInsert(tp[0], tp[1], relation.Int(7500))
	}
	for _, c := range []struct {
		name string
		t    *relation.Table
		q    relation.Eq
	}{
		{"dept", emp, relation.Eq{Column: "dept", Value: relation.String("HR")}},
		{"band", band, relation.Eq{Column: "salary", Value: relation.Int(7500)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ct, err := s.EncryptTable(c.t)
			if err != nil {
				b.Fatal(err)
			}
			eq, err := s.EncryptQuery(c.q)
			if err != nil {
				b.Fatal(err)
			}
			res, err := ph.Apply(ct, eq)
			if err != nil {
				b.Fatal(err)
			}
			decrypt := func() {
				if _, err := s.DecryptResult(c.q, res); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decrypt()
			}
			n := float64(len(res.Tuples))
			b.ReportMetric(n, "tuples/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
			b.StopTimer()
			b.ReportMetric(testing.AllocsPerRun(5, decrypt)/n, "allocs/tuple")
		})
	}
}

// benchCodec returns a codec positioned once on one document, the way
// internal/core holds one per tuple, and a word of its length.
func benchCodec(b *testing.B) (c *swp.Codec, word []byte) {
	b.Helper()
	key, _ := crypto.RandomKey()
	s, err := swp.New(key, swp.Params{WordLen: 11, ChecksumLen: 2})
	if err != nil {
		b.Fatal(err)
	}
	c = s.NewCodec()
	if err := c.SetDocument(make([]byte, swp.DocIDLen)); err != nil {
		b.Fatal(err)
	}
	return c, []byte("MontgomeryN")
}

func BenchmarkSWPEncryptWord(b *testing.B) {
	c, word := benchCodec(b)
	cw := make([]byte, len(word))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncryptWordInto(cw, uint64(i), word); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSWPDecryptWord(b *testing.B) {
	c, word := benchCodec(b)
	cw, got := make([]byte, len(word)), make([]byte, len(word))
	if err := c.EncryptWordInto(cw, 5, word); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DecryptWordInto(got, 5, cw); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(got, word) {
		b.Fatalf("decrypted %q, want %q", got, word)
	}
}

func BenchmarkSWPMatch(b *testing.B) {
	key, _ := crypto.RandomKey()
	p := swp.Params{WordLen: 11, ChecksumLen: 2}
	s, err := swp.New(key, p)
	if err != nil {
		b.Fatal(err)
	}
	word := []byte("MontgomeryN")
	cw, err := s.EncryptWord(make([]byte, swp.DocIDLen), 0, word)
	if err != nil {
		b.Fatal(err)
	}
	td, err := s.NewTrapdoor(word)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !swp.NewMatcher(p, td).Match(cw) {
			b.Fatal("match failed")
		}
	}
}

func BenchmarkMerkleBuild1k(b *testing.B) {
	s := benchScheme(b)
	ct, err := s.EncryptTable(benchTable(b, 1000))
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		authindex.Build(ct)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/1000, "B/leaf")
}

func BenchmarkMerkleVerify(b *testing.B) {
	s := benchScheme(b)
	ct, err := s.EncryptTable(benchTable(b, 1000))
	if err != nil {
		b.Fatal(err)
	}
	tree := authindex.Build(ct)
	root := tree.Root()
	proofs, err := tree.Prove([]int{500})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := authindex.Verify(root, 1000, ct.Tuples[500], proofs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// answerFixture is a verified answer at the benchmark's shape: 100
// positions scattered uniformly over a 20,000-tuple table.
func answerFixture(b *testing.B) (*authindex.Tree, *ph.Result) {
	b.Helper()
	const n, k = 20_000, 100
	ct, err := benchScheme(b).EncryptTable(benchTable(b, n))
	if err != nil {
		b.Fatal(err)
	}
	positions := rand.New(rand.NewSource(1)).Perm(n)[:k]
	sort.Ints(positions)
	return authindex.Build(ct), ph.SelectPositions(ct, positions)
}

func BenchmarkProveAnswer(b *testing.B) {
	tree, res := answerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.ProveAnswer(res.Positions); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Positions)), "tuples/op")
}

// BenchmarkVerifyAnswer checks one answer against its tree's cap row:
// cold is the full fold up to the cap, warm the same answer re-verified
// through a leaf cache an earlier verification of it filled, as a
// client's pin re-verifies a repeated answer.
func BenchmarkVerifyAnswer(b *testing.B) {
	tree, res := answerFixture(b)
	row := tree.CapRow()
	proof, err := tree.ProveAnswer(res.Positions)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, verify func(row []byte, leafCount int, positions []int, tuples []ph.EncryptedTuple, proof authindex.MultiProof) error) {
		if err := verify(row, 20_000, res.Positions, res.Tuples, proof); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := verify(row, 20_000, res.Positions, res.Tuples, proof); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(res.Tuples)), "tuples/op")
		b.ReportMetric(float64(len(proof))/float64(len(res.Tuples)), "proof-B/tuple")
	}
	b.Run("cold", func(b *testing.B) { run(b, authindex.VerifyAnswer) })
	b.Run("warm", func(b *testing.B) { run(b, authindex.NewLeafCache().VerifyAnswer) })
}

func BenchmarkDef21GameTrial(b *testing.B) {
	g := games.Def21{Factory: bench.MustFactory(core.SchemeID), Q: 0, Mode: games.Passive}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(attacks.SalaryPair{}, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
