package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/swp"
	"repro/internal/workload"
)

// RunE13 regenerates experiment E13 (extension): the search-engine
// before/after report. The paper's exact-select resolves to the server
// testing one SWP trapdoor against every cipherword of every tuple; this
// experiment measures that hot path at both layers — the per-cipherword
// match test (seed shape: fresh PRF state and scratch slices per call,
// versus the engine's reused swp.Matcher) and the whole-table evaluation
// (single-threaded versus the GOMAXPROCS worker pool) — reporting ns/op,
// B/op and allocs/op for each. The engine rows must show 0 allocs/op for
// the match test; the note rows record the measured speedups.
func RunE13(tuples int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  fmt.Sprintf("search engine: match/evaluate cost before vs after (table: %d tuples, GOMAXPROCS=%d)", tuples, runtime.GOMAXPROCS(0)),
		Header: []string{"path", "unit", "ns/op", "B/op", "allocs/op"},
		Notes: []string{
			"'seed' rows reproduce the pre-engine implementation shape: per-call PRF construction and scratch allocation, single-threaded scan",
			"'engine' rows are the swp.Matcher / parallel core.Evaluate hot path; the match engine row must report 0 allocs/op",
		},
	}

	// Layer 1: the per-cipherword match test over one long document.
	params := swp.Params{WordLen: 16, ChecksumLen: 2}
	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	scheme, err := swp.New(key, params)
	if err != nil {
		return nil, err
	}
	words := make([][]byte, 512)
	for i := range words {
		w := make([]byte, params.WordLen)
		for j := range w {
			w[j] = byte((i*31 + j*7) % 251)
		}
		words[i] = w
	}
	cws, err := scheme.EncryptDocument(make([]byte, swp.DocIDLen), words)
	if err != nil {
		return nil, err
	}
	td, err := scheme.NewTrapdoor(words[0])
	if err != nil {
		return nil, err
	}

	seedMatch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			swp.Match(params, cws[i%len(cws)], td) // fresh matcher state per call
		}
	})
	addBenchRow(t, "swp match: seed", "per cipherword", seedMatch)

	matcher := swp.NewMatcher(params, td)
	engineMatch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matcher.Match(cws[i%len(cws)])
		}
	})
	addBenchRow(t, "swp match: engine", "per cipherword", engineMatch)

	// Layer 2: whole-table evaluation, serial versus parallel, same query.
	table, err := workload.Employees(tuples, seed)
	if err != nil {
		return nil, err
	}
	phScheme, err := core.New(key, table.Schema(), core.Options{})
	if err != nil {
		return nil, err
	}
	ct, err := phScheme.EncryptTable(table)
	if err != nil {
		return nil, err
	}
	eq, err := phScheme.EncryptQuery(relation.Eq{Column: "name", Value: table.Tuple(tuples / 2)[0]})
	if err != nil {
		return nil, err
	}
	// Allocation profiles come from short testing.Benchmark runs; the
	// timing comparison interleaves serial and parallel evaluations in one
	// loop so machine noise hits both sides equally.
	serialAllocs := testing.Benchmark(func(b *testing.B) { benchEval(b, core.EvaluateSerial, ct, eq) })
	parallelAllocs := testing.Benchmark(func(b *testing.B) { benchEval(b, core.Evaluate, ct, eq) })
	var serNs, parNs time.Duration
	const reps = 16
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		if _, err := core.EvaluateSerial(ct, eq); err != nil {
			return nil, err
		}
		serNs += time.Since(t0)
		t1 := time.Now()
		if _, err := core.Evaluate(ct, eq); err != nil {
			return nil, err
		}
		parNs += time.Since(t1)
	}
	t.AddRow("core evaluate: serial engine", "per query",
		fmt.Sprintf("%d", serNs.Nanoseconds()/reps),
		fmt.Sprintf("%d", serialAllocs.AllocedBytesPerOp()),
		fmt.Sprintf("%d", serialAllocs.AllocsPerOp()))
	t.AddRow("core evaluate: parallel engine", "per query",
		fmt.Sprintf("%d", parNs.Nanoseconds()/reps),
		fmt.Sprintf("%d", parallelAllocs.AllocedBytesPerOp()),
		fmt.Sprintf("%d", parallelAllocs.AllocsPerOp()))
	if parNs > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("parallel evaluate speedup over serial engine: %.2fx at GOMAXPROCS=%d (interleaved timing, %d reps)",
			float64(serNs)/float64(parNs), runtime.GOMAXPROCS(0), reps))
	}
	if engineMatch.NsPerOp() > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("engine match test is %.2fx the seed path's throughput with %d fewer allocs/op",
			float64(seedMatch.NsPerOp())/float64(engineMatch.NsPerOp()), seedMatch.AllocsPerOp()-engineMatch.AllocsPerOp()))
	}
	// The seed evaluator was the seed match test applied single-threaded to
	// every cipherword; its whole-table cost is estimated from the measured
	// per-word seed cost times the table's word count.
	totalWords := 0
	for _, tp := range ct.Tuples {
		totalWords += len(tp.Words)
	}
	if parNs > 0 {
		seedScan := seedMatch.NsPerOp() * int64(totalWords)
		t.Notes = append(t.Notes, fmt.Sprintf("seed-path whole-table scan estimate: %d ns/query (%d words); parallel engine speedup over seed: %.1fx",
			seedScan, totalWords, float64(seedScan)/float64(parNs.Nanoseconds()/reps)))
	}
	return t, nil
}

// benchEval times one evaluator for the allocation profile.
func benchEval(b *testing.B, eval func(*ph.EncryptedTable, *ph.EncryptedQuery) (*ph.Result, error), ct *ph.EncryptedTable, eq *ph.EncryptedQuery) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval(ct, eq); err != nil {
			b.Fatal(err)
		}
	}
}

// addBenchRow formats one testing.Benchmark result as a table row.
func addBenchRow(t *Table, path, unit string, r testing.BenchmarkResult) {
	t.AddRow(path, unit,
		fmt.Sprintf("%d", r.NsPerOp()),
		fmt.Sprintf("%d", r.AllocedBytesPerOp()),
		fmt.Sprintf("%d", r.AllocsPerOp()))
}
