package bench

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"time"

	"repro/internal/authindex"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/schemes/gohph"
	"repro/internal/swp"
	"repro/internal/workload"
)

// RunE5 regenerates experiment E5: the false-positive rate of both
// searchable-encryption instantiations versus their security parameter.
// §3 claims "the error rate is relatively small for all practical
// purposes"; here it is measured against theory — 2^(−8m) per word slot
// for SWP's m-byte checksum, and the Bloom rate (1 − e^(−kn/m))^k per
// document for the Goh instantiation — by searching random data for an
// absent word.
func RunE5(slots int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "searchable-encryption false-positive rate vs security parameter (probes per cell: " + fmt.Sprint(slots) + ")",
		Header: []string{"instantiation", "parameter", "theoretical", "measured", "false hits"},
		Notes: []string{
			"paper §3: 'the error rate is relatively small for all practical purposes, this does not affect the efficiency of our construction'",
			"SWP: trapdoor for an absent word vs random-word documents (per word slot); Goh: absent-value queries vs encrypted tables (per tuple)",
		},
	}
	rng := mrand.New(mrand.NewSource(seed))
	for _, m := range []int{1, 2, 3, 4} {
		falseHits, theo, err := SWPFalseHits(m, slots, rng.Int63())
		if err != nil {
			return nil, err
		}
		t.AddRow("swp", fmt.Sprintf("m=%d", m), formatRate(theo),
			formatRate(float64(falseHits)/float64(slots)), fmt.Sprintf("%d", falseHits))
	}
	// Goh instantiation: per-tuple Bloom filters. Probes are
	// (absent-value query) × (tuple) pairs.
	for _, fp := range []float64{1e-2, 1e-3, 1.0 / 65536} {
		hits, probes, theo, err := measureGohFP(fp, slots, rng.Int63())
		if err != nil {
			return nil, err
		}
		t.AddRow("goh", fmt.Sprintf("fp=%.0e", fp), formatRate(theo),
			formatRate(float64(hits)/float64(probes)), fmt.Sprintf("%d", hits))
	}
	return t, nil
}

// SWPFalseHits counts the false hits of SWP with an m-byte checksum
// over probes word slots, and returns them with the theoretical rate
// per slot. One corpus of random-word documents is encrypted and probed
// with absent-word trapdoors until probes slots have been tested. Each
// (trapdoor, cipherword) pair is one probe: a false hit needs the word's
// checksum to match F under the trapdoor's own key, so distinct
// trapdoors test the same cipherwords independently. The probes run
// through Matcher.MatchRun, the server's scan kernel, each cipherword a
// one-word document so that every matching slot counts.
func SWPFalseHits(m, probes int, seed int64) (hits int, theo float64, err error) {
	const wordLen, docSize, corpusDocs = 8, 64, 256
	key, err := crypto.RandomKey()
	if err != nil {
		return 0, 0, err
	}
	scheme, err := swp.New(key, swp.Params{WordLen: wordLen, ChecksumLen: m})
	if err != nil {
		return 0, 0, err
	}
	rng := mrand.New(mrand.NewSource(seed))
	var corpus [][]byte
	for d := 0; d < corpusDocs && len(corpus) < probes; d++ {
		docID := make([]byte, swp.DocIDLen)
		if _, err := rand.Read(docID); err != nil {
			return 0, 0, err
		}
		words := make([][]byte, docSize)
		for i := range words {
			w := make([]byte, wordLen)
			for j := range w {
				w[j] = byte(rng.Intn(255)) // never 0xFF
			}
			words[i] = w
		}
		cws, err := scheme.EncryptDocument(docID, words)
		if err != nil {
			return 0, 0, err
		}
		corpus = append(corpus, cws...)
	}
	var found []int
	for t, probed := uint64(0), 0; probed < probes; t++ {
		// Absent word: t behind a 0xFF byte the generator never
		// produces.
		absent := binary.BigEndian.AppendUint64(nil, t)
		absent[0] = 0xFF
		td, err := scheme.NewTrapdoor(absent)
		if err != nil {
			return 0, 0, err
		}
		n := min(len(corpus), probes-probed)
		found = swp.NewMatcher(scheme.Params(), td).MatchRun(n, func(i int) [][]byte { return corpus[i : i+1 : i+1] }, found[:0])
		hits += len(found)
		probed += n
	}
	return hits, scheme.Params().FalsePositiveRate(), nil
}

// measureGohFP counts Bloom false positives of the Goh instantiation: an
// encrypted table is probed with queries for values that are not in it.
func measureGohFP(fpTarget float64, probes int, seed int64) (hits, done int, theo float64, err error) {
	key, err := crypto.RandomKey()
	if err != nil {
		return 0, 0, 0, err
	}
	schema := workload.EmployeeSchema()
	scheme, err := gohph.New(key, schema, gohph.Options{FPRate: fpTarget})
	if err != nil {
		return 0, 0, 0, err
	}
	const tuples = 4000
	table, err := workload.Employees(tuples, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	ct, err := scheme.EncryptTable(table)
	if err != nil {
		return 0, 0, 0, err
	}
	m, k := scheme.FilterParams()
	theo = bloom.FalsePositiveRate(m, k, schema.NumColumns())
	for q := 0; done < probes; q++ {
		// "zz…" never appears in the generated names/departments.
		eq, err := scheme.EncryptQuery(relation.Eq{
			Column: "name", Value: relation.String(fmt.Sprintf("zz%06d", q)),
		})
		if err != nil {
			return 0, 0, 0, err
		}
		res, err := ph.Apply(ct, eq)
		if err != nil {
			return 0, 0, 0, err
		}
		hits += len(res.Positions)
		done += tuples
	}
	return hits, done, theo, nil
}

// formatRate renders small probabilities legibly.
func formatRate(r float64) string {
	if r == 0 {
		return "0"
	}
	if r < 1e-4 {
		return fmt.Sprintf("%.2e", r)
	}
	return f5(r)
}

// E6Row is one cell of the performance sweep.
type E6Row struct {
	Scheme       string
	Tuples       int
	EncryptNsOp  float64 // per tuple
	QueryNsOp    float64 // per query, server side
	DecryptNsOp  float64 // per result tuple incl. filtering
	ResultTuples float64 // avg server result size (pre-filter)
	TrueTuples   float64 // avg true result size (post-filter)
}

// RunE6 regenerates experiment E6: the performance profile the paper's §4
// alludes to ("researchers have been overly concerned with minimizing their
// performance overhead"). For each scheme and table size it measures
// encryption throughput, server-side query latency, and the post-filter
// overhead (how many extra tuples coarse schemes ship to the client).
// The plaintext scan row is the unencrypted baseline.
func RunE6(sizes []int, queriesPerSize int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "performance: encrypt / query / decrypt per scheme and table size",
		Header: []string{"scheme", "tuples", "encrypt µs/tuple", "query ms", "decrypt+filter µs/tuple",
			"result pre-filter", "result true"},
		Notes: []string{
			"shape, not absolute 2006 numbers: deterministic indexes answer fastest but leak; SWP search is linear in words with PRF cost per slot; bucketization ships false positives to the client",
		},
	}
	for _, n := range sizes {
		table, err := workload.Employees(n, seed)
		if err != nil {
			return nil, err
		}
		queries := workload.QueryMix(table, queriesPerSize, seed+1)
		// Plaintext baseline: linear scan.
		plainStart := time.Now()
		var plainHits int
		for _, q := range queries {
			res, err := relation.Select(table, q)
			if err != nil {
				return nil, err
			}
			plainHits += res.Len()
		}
		plainDur := time.Since(plainStart)
		t.AddRow("plaintext scan", fmt.Sprintf("%d", n), "-",
			fmt.Sprintf("%.3f", float64(plainDur.Nanoseconds())/1e6/float64(len(queries))),
			"-", f3(float64(plainHits)/float64(len(queries))), f3(float64(plainHits)/float64(len(queries))))

		for _, name := range SchemeNames {
			row, err := measureScheme(name, table, queries)
			if err != nil {
				return nil, fmt.Errorf("bench: E6 %s n=%d: %w", name, n, err)
			}
			t.AddRow(row.Scheme, fmt.Sprintf("%d", row.Tuples),
				fmt.Sprintf("%.1f", row.EncryptNsOp/1e3),
				fmt.Sprintf("%.3f", row.QueryNsOp/1e6),
				fmt.Sprintf("%.1f", row.DecryptNsOp/1e3),
				f3(row.ResultTuples), f3(row.TrueTuples))
		}
	}
	return t, nil
}

// measureScheme times one scheme over one table and query mix.
func measureScheme(name string, table *relation.Table, queries []relation.Eq) (*E6Row, error) {
	factory := MustFactory(name)
	scheme, err := factory(table.Schema())
	if err != nil {
		return nil, err
	}
	encStart := time.Now()
	ct, err := scheme.EncryptTable(table)
	if err != nil {
		return nil, err
	}
	encDur := time.Since(encStart)

	var queryDur, decDur time.Duration
	var preFilter, postFilter, resultTuples int
	for _, q := range queries {
		eq, err := scheme.EncryptQuery(q)
		if err != nil {
			return nil, err
		}
		qStart := time.Now()
		res, err := ph.Apply(ct, eq)
		if err != nil {
			return nil, err
		}
		queryDur += time.Since(qStart)
		preFilter += len(res.Tuples)
		dStart := time.Now()
		out, err := scheme.DecryptResult(q, res)
		if err != nil {
			return nil, err
		}
		decDur += time.Since(dStart)
		postFilter += out.Len()
		resultTuples += len(res.Tuples)
	}
	nq := float64(len(queries))
	row := &E6Row{
		Scheme:       name,
		Tuples:       table.Len(),
		EncryptNsOp:  float64(encDur.Nanoseconds()) / float64(table.Len()),
		QueryNsOp:    float64(queryDur.Nanoseconds()) / nq,
		ResultTuples: float64(preFilter) / nq,
		TrueTuples:   float64(postFilter) / nq,
	}
	if resultTuples > 0 {
		row.DecryptNsOp = float64(decDur.Nanoseconds()) / float64(resultTuples)
	}
	return row, nil
}

// RunE7 regenerates experiment E7: the Definition 1.1 homomorphism property
// E_k(σ_i(R)) = ψ_i(E_k(R)), checked (post-decryption, after false-positive
// filtering) over randomised relations and query sets for every scheme.
func RunE7(tables, queriesPerTable int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Definition 1.1 homomorphism property: D(ψ(E(R))) = σ(R) over random relations",
		Header: []string{"scheme", "tables", "queries", "mismatches"},
		Notes: []string{
			"checked as result equality after decryption and client-side filtering, which is the operational content of E_k(σ_i(R)) = ψ_i(E_k(R)) for probabilistic E",
		},
	}
	rng := mrand.New(mrand.NewSource(seed))
	for _, name := range SchemeNames {
		factory := MustFactory(name)
		mismatches := 0
		totalQueries := 0
		for ti := 0; ti < tables; ti++ {
			table, err := workload.Employees(20+rng.Intn(60), rng.Int63())
			if err != nil {
				return nil, err
			}
			scheme, err := factory(table.Schema())
			if err != nil {
				return nil, err
			}
			ct, err := scheme.EncryptTable(table)
			if err != nil {
				return nil, err
			}
			for _, q := range workload.QueryMix(table, queriesPerTable, rng.Int63()) {
				totalQueries++
				want, err := relation.Select(table, q)
				if err != nil {
					return nil, err
				}
				eq, err := scheme.EncryptQuery(q)
				if err != nil {
					return nil, err
				}
				res, err := ph.Apply(ct, eq)
				if err != nil {
					return nil, err
				}
				got, err := scheme.DecryptResult(q, res)
				if err != nil {
					return nil, err
				}
				if !got.Equal(want) {
					mismatches++
				}
			}
		}
		t.AddRow(name, fmt.Sprintf("%d", tables), fmt.Sprintf("%d", totalQueries), fmt.Sprintf("%d", mismatches))
	}
	return t, nil
}

// RunE8 regenerates experiment E8 (extension): authenticated-index proof
// size, verification throughput, and tamper detection over table size.
func RunE8(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "extension: Merkle authenticated index — proof size, verification cost, tamper detection",
		Header: []string{"tuples", "proof hashes", "proof bytes", "verify µs", "tampering detected"},
		Notes: []string{
			"beyond the paper: its model trusts Eve to follow protocol; this measures the cost of dropping that assumption for result integrity",
		},
	}
	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	for _, n := range sizes {
		table, err := workload.Employees(n, seed)
		if err != nil {
			return nil, err
		}
		scheme, err := core.New(key, table.Schema(), core.Options{})
		if err != nil {
			return nil, err
		}
		ct, err := scheme.EncryptTable(table)
		if err != nil {
			return nil, err
		}
		tree := authindex.Build(ct)
		root := tree.Root()
		pos := n / 2
		proofs, err := tree.Prove([]int{pos})
		if err != nil {
			return nil, err
		}
		proof := proofs[0]
		// Verify throughput.
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := authindex.Verify(root, n, ct.Tuples[pos], proof); err != nil {
				return nil, fmt.Errorf("bench: E8 verify failed on honest data: %w", err)
			}
		}
		verifyUs := float64(time.Since(start).Microseconds()) / reps
		// Tamper detection: flip one ciphertext byte.
		tampered := ct.Tuples[pos]
		tampered.Words = append([][]byte(nil), tampered.Words...)
		tampered.Words[0] = append([]byte(nil), tampered.Words[0]...)
		tampered.Words[0][0] ^= 0x01
		detected := authindex.Verify(root, n, tampered, proof) != nil
		proofBytes := 0
		for _, s := range proof.Siblings {
			proofBytes += len(s)
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(proof.Siblings)),
			fmt.Sprintf("%d", proofBytes), fmt.Sprintf("%.1f", verifyUs), fmt.Sprintf("%v", detected))
	}
	return t, nil
}
