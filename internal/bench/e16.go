package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/authindex"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/workload"
)

// RunE16 regenerates experiment E16 (extension): the verified-read path
// before/after the versioned incremental authenticated index. The
// before-side reproduces the seed's serving shape — every root and
// every proof request deep-copied the whole table (Store.Get) and
// rebuilt the Merkle tree from scratch, and a verified select paid that
// twice (root fetch + proof fetch) on top of the query. The after-side
// is the one-round QueryVerified: result, proofs, root and version cut
// from one read-locked snapshot over the incrementally extended tree.
//
// Four measurements:
//
//  1. hot-word query: unverified (cache hit) vs one-round verified —
//     the "verified reads as cheap as cached reads" claim;
//  2. verified hot-word query: seed shape (two rebuilds per request) vs
//     engine (incremental tree);
//  3. append-then-verified-requery: rebuild-after-append vs Extend;
//  4. proof throughput (proofs/s) over a result-sized position batch,
//     rebuild-per-request vs incremental tree.
//
// A built-in gate verifies every proof produced while measuring against
// the root it travelled with, and the incremental root against a
// from-scratch rebuild of the final table.
func RunE16(tuples int, seed int64) (*Table, error) {
	t := &Table{
		ID: "E16",
		Title: fmt.Sprintf("verified reads: incremental authenticated index vs rebuild-per-request (table: %d tuples)",
			tuples),
		Header: []string{"path", "unit", "ns/op", "B/op", "allocs/op"},
		Notes: []string{
			"'seed' rows reproduce the pre-index serving shape: Store.Get deep-copies the table and authindex.Build rebuilds the whole tree per request; a verified select paid that for the root AND again for the proofs",
			"'engine' rows use the store's versioned per-table tree: built once, extended incrementally on append, served under the same read lock as the tuples",
		},
	}

	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	table, err := workload.Employees(tuples, seed)
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
	hotQ, err := scheme.EncryptQuery(relation.Eq{Column: "dept", Value: relation.String("FIN")})
	if err != nil {
		return nil, err
	}

	store := storage.NewMemory()
	if err := store.Put("emp", ct); err != nil {
		return nil, err
	}
	if _, err := store.Query("emp", hotQ); err != nil { // warm the result cache
		return nil, err
	}

	// seedVerifiedSelect is the seed's verified select, faithfully: query,
	// then root via deep-copy + rebuild, then proofs via another
	// deep-copy + rebuild.
	seedVerifiedSelect := func() (*ph.Result, []byte, []authindex.Proof, error) {
		res, err := store.Query("emp", hotQ)
		if err != nil {
			return nil, nil, nil, err
		}
		rt, err := store.Get("emp")
		if err != nil {
			return nil, nil, nil, err
		}
		root := authindex.Build(rt).Root()
		pt, err := store.Get("emp")
		if err != nil {
			return nil, nil, nil, err
		}
		proofs, err := authindex.Build(pt).Prove(res.Positions)
		if err != nil {
			return nil, nil, nil, err
		}
		return res, root, proofs, nil
	}

	// --- 1 + 2. Hot-word serving cost. ---
	unverified := testing.Benchmark(func(b *testing.B) { benchStoreQuery(b, store, hotQ) })
	addBenchRow(t, "hot query: unverified (cache hit)", "per query", unverified)

	seedVerified := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := seedVerifiedSelect(); err != nil {
				b.Fatal(err)
			}
		}
	})
	addBenchRow(t, "hot query: verified, seed (2x copy+rebuild)", "per query", seedVerified)

	engineVerified := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.QueryVerified("emp", hotQ); err != nil {
				b.Fatal(err)
			}
		}
	})
	addBenchRow(t, "hot query: verified, engine (one-round)", "per query", engineVerified)
	if unverified.NsPerOp() > 0 && engineVerified.NsPerOp() > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"verified vs unverified hot query: %.2fx the cached latency (seed shape was %.1fx); verified vs seed verified: %.1fx faster",
			float64(engineVerified.NsPerOp())/float64(unverified.NsPerOp()),
			float64(seedVerified.NsPerOp())/float64(unverified.NsPerOp()),
			float64(seedVerified.NsPerOp())/float64(engineVerified.NsPerOp())))
	}

	// --- 3. Append then verified requery: rebuild vs Extend. The seed
	// side appends to a second store that serves its tree by rebuild; the
	// engine side appends to the live store (tree already materialised)
	// and pays only the extend + delta scan + proofs. ---
	oneTuple, err := encryptFreshTuples(scheme, 1, seed+1)
	if err != nil {
		return nil, err
	}
	seedAppend := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := store.Append("emp", oneTuple); err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := seedVerifiedSelect(); err != nil {
				b.Fatal(err)
			}
		}
	})
	addBenchRow(t, "append+verified requery: seed (rebuild)", "per append+query", seedAppend)
	engineAppend := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := store.Append("emp", oneTuple); err != nil {
				b.Fatal(err)
			}
			if _, err := store.QueryVerified("emp", hotQ); err != nil {
				b.Fatal(err)
			}
		}
	})
	addBenchRow(t, "append+verified requery: engine (extend)", "per append+query", engineAppend)
	if engineAppend.NsPerOp() > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("append-then-verified-requery: %.1fx faster than the rebuild shape",
			float64(seedAppend.NsPerOp())/float64(engineAppend.NsPerOp())))
	}

	// --- 4. Proof throughput over a result-sized batch. ---
	vr, err := store.QueryVerified("emp", hotQ)
	if err != nil {
		return nil, err
	}
	positions := vr.Result.Positions
	if len(positions) == 0 {
		return nil, fmt.Errorf("bench: e16 hot word matched nothing")
	}
	proofThroughput := func(prove func() error) (float64, error) {
		const rounds = 64
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := prove(); err != nil {
				return 0, err
			}
		}
		return float64(rounds*len(positions)) / time.Since(start).Seconds(), nil
	}
	seedPPS, err := proofThroughput(func() error {
		pt, err := store.Get("emp")
		if err != nil {
			return err
		}
		_, err = authindex.Build(pt).Prove(positions)
		return err
	})
	if err != nil {
		return nil, err
	}
	enginePPS, err := proofThroughput(func() error {
		_, err := store.QueryVerified("emp", hotQ)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("proof throughput: seed (copy+rebuild)", "proofs/s", fmt.Sprintf("%.0f", seedPPS), "-", "-")
	t.AddRow("proof throughput: engine (QueryVerified, cache hit + incremental tree)", "proofs/s", fmt.Sprintf("%.0f", enginePPS), "-", "-")
	if seedPPS > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("proof throughput over %d-position batches: %.0f vs %.0f proofs/s (%.1fx)",
			len(positions), enginePPS, seedPPS, enginePPS/seedPPS))
	}

	// --- Correctness gate: the engine's verified answer must verify
	// against the root it carries, and that root must equal a rebuild of
	// the final table. ---
	final, err := store.QueryVerified("emp", hotQ)
	if err != nil {
		return nil, err
	}
	if len(final.Result.Tuples) == 0 {
		return nil, fmt.Errorf("bench: e16 gate: the hot query's verified answer is empty, so nothing was verified")
	}
	if err := authindex.VerifyAnswer(final.Root, final.Leaves, final.Result.Positions, final.Result.Tuples, final.Multiproof); err != nil {
		return nil, fmt.Errorf("bench: e16 gate: answer of %d tuples rejected: %w", len(final.Result.Tuples), err)
	}
	full, err := store.Get("emp")
	if err != nil {
		return nil, err
	}
	if want := authindex.Build(full).Root(); !bytes.Equal(final.Root, want) {
		return nil, fmt.Errorf("bench: e16 gate: incremental root differs from rebuild")
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"correctness gate: the answer's %d tuples verified against their snapshot root in one multiproof, and the incrementally extended root matches a from-scratch rebuild of the final %d-tuple table", len(final.Result.Tuples), len(full.Tuples)))
	return t, nil
}
