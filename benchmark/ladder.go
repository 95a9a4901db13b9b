package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/authindex"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Below the wire there is no seam to hang a span on, so the ladder
// replays a sample of the workload's own queries bottom-up through the
// layers' exported functions, on the harness's handle to a served store,
// after the traced phase. Sample sizes: every distinct select the
// workload sent, up to ladderSample; full-table rows stop at
// ladderScans of them.
const (
	ladderSample = 200
	ladderScans  = 40
	ladderTable  = "ladder"
	// ladderGrowth is how many tuples the table grows by before the
	// delta rows re-read each token: 64 inserts, append_mix's own mean
	// gap between two reads of one band.
	ladderGrowth = mixBands * insertBatch
)

// timeEach runs f(i) for i in [0, n) and returns the median duration in
// nanoseconds. It collects first, so one row's garbage is not the next
// row's GC work.
func timeEach(n int, f func(i int) error) (float64, error) {
	runtime.GC()
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return median(ds), nil
}

// allocsOf returns the mean heap allocations of one f(i) over n runs.
func allocsOf(n int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(max(1, n))
}

// ladder is the state the rows share.
type ladder struct {
	e      *env
	v      map[string]float64
	scheme *core.PH
	store  *storage.Store

	selects []relation.Eq        // the sampled queries …
	tokens  []*ph.EncryptedQuery // … encrypted …
	results []*ph.Result         // … and the server's answer to each
	conjs   [][]relation.Eq

	// et is the snapshot every direct call works on: the served table as
	// the store holds it (behind a coordinator, shard 0's partition).
	et *ph.EncryptedTable
	// fresh holds two growth steps of ladderGrowth tuples, encrypted.
	fresh []*ph.EncryptedTable
}

// row times f over n runs and records the median under name, in units
// of perUnit nanoseconds.
func (l *ladder) row(name string, perUnit float64, n int, f func(i int) error) error {
	ns, err := timeEach(n, f)
	l.v[name] = ns / perUnit
	return err
}

// runLadder fills v with the metrics measured by direct calls.
func (e *env) runLadder(v map[string]float64) error {
	c := e.clients[0]
	l := &ladder{e: e, v: v, store: e.nodes[0].store}
	var err error
	if l.scheme, err = newScheme(e.cfg.seed); err != nil {
		return err
	}
	// The sample: client 0's distinct selects on the workload's ladder
	// column (a SelectMany contributes its members) and its conjunctions.
	seen := make(map[valueKey]bool)
	for _, o := range c.ops[:c.next] {
		switch o.kind {
		case opSelect, opMany:
			for _, eq := range o.eqs {
				k := keyOf(c.model.t.Schema().ColumnIndex(eq.Column), eq.Value)
				if eq.Column == e.w.ladderColumn && !seen[k] && len(l.selects) < ladderSample {
					seen[k] = true
					l.selects = append(l.selects, eq)
				}
			}
		case opConj:
			if len(l.conjs) < ladderSample {
				l.conjs = append(l.conjs, o.eqs)
			}
		}
	}
	if len(l.selects) == 0 {
		return fmt.Errorf("the phase sent no selects to sample")
	}
	l.tokens = make([]*ph.EncryptedQuery, len(l.selects))
	for i, eq := range l.selects {
		if l.tokens[i], err = l.scheme.EncryptQuery(eq); err != nil {
			return err
		}
	}
	if l.et, err = l.store.Get(c.table); err != nil {
		return err
	}
	for _, rows := range []func() error{l.scanRows, l.clientRows, l.wireAndProofRows, l.storageRows, l.plannerRows, l.floorRow} {
		if err := rows(); err != nil {
			return err
		}
	}
	return nil
}

// scanRows: crypto → swp → core, the path of a cold select.
func (l *ladder) scanRows() error {
	const inner = 1000
	n := len(l.et.Tuples)
	scans := min(ladderScans, len(l.tokens))

	// The PRF call Match makes: checksum-width output, stream-width input.
	params := l.scheme.Params()[0]
	prf := crypto.NewPRF(masterKey(l.e.cfg.seed))
	sum, input := make([]byte, params.ChecksumLen), make([]byte, params.WordLen-params.ChecksumLen)
	if err := l.row("crypto.prf_sum_ns", inner, 50, func(int) error {
		for k := 0; k < inner; k++ {
			prf.SumInto(sum, input)
		}
		return nil
	}); err != nil {
		return err
	}

	// One trapdoor against stored cipherwords.
	var words [][]byte
	for _, tp := range l.et.Tuples[:min(n, inner)] {
		words = append(words, tp.Words...)
	}
	matcher, err := core.TokenMatcher(l.et.Meta, l.tokens[0].Token)
	if err != nil {
		return err
	}
	matched := 0
	scanWords := func(int) {
		for _, w := range words {
			if matcher.Match(w) {
				matched++
			}
		}
	}
	if err := l.row("swp.match_ns", float64(len(words)), 50, func(i int) error { scanWords(i); return nil }); err != nil {
		return err
	}
	l.v["swp.match_allocs"] = allocsOf(20, scanWords) / float64(len(words))

	// The scan kernel per tuple, then the whole ψ, serial and sharded.
	hits := make([]int, 0, core.PositionsCap(n))
	if err := l.row("core.match_tuples_ns_per_tuple", float64(max(1, n)), scans, func(i int) error {
		m, err := core.TokenMatcher(l.et.Meta, l.tokens[i].Token)
		hits = core.MatchTuples(l.et.Tuples, 0, m, hits[:0])
		return err
	}); err != nil {
		return err
	}
	l.results = make([]*ph.Result, len(l.tokens))
	if err := l.row("core.evaluate_serial_ms", 1e6, scans, func(i int) (err error) {
		l.results[i], err = core.EvaluateSerial(l.et, l.tokens[i])
		return err
	}); err != nil {
		return err
	}
	if err := l.row("core.evaluate_ms", 1e6, scans, func(i int) error {
		_, err := core.Evaluate(l.et, l.tokens[i])
		return err
	}); err != nil {
		return err
	}
	for i := scans; i < len(l.tokens); i++ {
		if l.results[i], err = core.Evaluate(l.et, l.tokens[i]); err != nil {
			return err
		}
	}
	return nil
}

// clientRows: what client.DB does round the wire — token encryption,
// result decryption with the false-positive filter, tuple encryption —
// and ph's materialisation of a result from its positions.
func (l *ladder) clientRows() error {
	if err := l.row("core.encrypt_query_us", 1e3, len(l.selects), func(i int) error {
		_, err := l.scheme.EncryptQuery(l.selects[i])
		return err
	}); err != nil {
		return err
	}
	var decryptNs float64
	serverHits, kept := 0, 0
	for i, res := range l.results {
		t0 := time.Now()
		plain, err := l.scheme.DecryptResult(l.selects[i], res)
		if err != nil {
			return err
		}
		decryptNs += float64(time.Since(t0))
		serverHits += len(res.Tuples)
		kept += plain.Len()
	}
	l.v["core.decrypt_result_us_per_tuple"] = ratio(decryptNs/1e3, float64(serverHits))
	l.v["core.false_positive_frac"] = ratio(float64(serverHits-kept), float64(serverHits))

	g := newGen(l.e.cfg.seed, 300)
	batches := make([]*relation.Table, 2*ladderGrowth/insertBatch)
	for i := range batches {
		batches[i] = tableOf(g.tuples(insertBatch))
	}
	l.fresh = make([]*ph.EncryptedTable, len(batches))
	if err := l.row("core.encrypt_tuple_us", 1e3*insertBatch, len(batches), func(i int) (err error) {
		l.fresh[i], err = l.scheme.EncryptTable(batches[i])
		return err
	}); err != nil {
		return err
	}

	copyOut := func(i int) { ph.SelectPositions(l.et, l.results[i].Positions) }
	if err := l.row("ph.select_positions_us", 1e3, len(l.results), func(i int) error { copyOut(i); return nil }); err != nil {
		return err
	}
	l.v["ph.select_positions_allocs"] = allocsOf(len(l.results), copyOut)
	return nil
}

// wireAndProofRows: the response frame of each sampled read through the
// codec — verified where the workload verifies — and authindex on the
// same answers.
func (l *ladder) wireAndProofRows() error {
	n := len(l.et.Tuples)
	tree := authindex.Build(l.et)
	root := tree.Root()
	payloads := make([][]byte, len(l.results))
	var proveNs, verifyNs, proofBytes float64
	proven := 0
	for i, res := range l.results {
		if !l.e.w.ownTable {
			payloads[i] = wire.EncodeResult(nil, res)
			continue
		}
		t0 := time.Now()
		proofs, err := tree.Prove(res.Positions)
		if err != nil {
			return err
		}
		t1 := time.Now()
		for k, p := range proofs {
			if err := authindex.Verify(root, n, res.Tuples[k], p); err != nil {
				return err
			}
		}
		proveNs += float64(t1.Sub(t0))
		verifyNs += float64(time.Since(t1))
		proofBytes += float64(len(authindex.EncodeProofs(nil, proofs)))
		proven += len(proofs)
		payloads[i] = authindex.EncodeVerifiedResult(nil, &authindex.VerifiedResult{Result: res, Root: root, Leaves: n, Proofs: proofs})
	}
	var frame bytes.Buffer
	framed := bufio.NewReader(&frame)
	scratch := wire.GetBuf()
	defer func() { wire.PutBuf(scratch) }()
	if err := l.row("wire.codec_us", 1e3, len(payloads), func(i int) (err error) {
		frame.Reset()
		if err := wire.WriteFrame(&frame, wire.Frame{Type: wire.RespResult, Payload: payloads[i]}); err != nil {
			return err
		}
		framed.Reset(&frame)
		_, scratch, err = wire.ReadFrameReuse(framed, scratch)
		return err
	}); err != nil {
		return err
	}
	if !l.e.w.ownTable {
		return nil // the authindex rows read 0: nothing here verifies
	}
	l.v["authindex.prove_us_per_tuple"] = ratio(proveNs/1e3, float64(proven))
	l.v["authindex.verify_us_per_tuple"] = ratio(verifyNs/1e3, float64(proven))
	l.v["authindex.proof_bytes_per_tuple"] = ratio(proofBytes, float64(proven))
	return l.row("authindex.extend_us_per_leaf", 1e3*insertBatch, len(l.fresh), func(i int) error {
		leaves := make([][]byte, len(l.fresh[i].Tuples))
		for k, tp := range l.fresh[i].Tuples {
			leaves[k] = authindex.LeafHash(tp)
		}
		tree.Extend(leaves)
		return nil
	})
}

// storageRows: direct Store calls on a copy of the table under a new
// name, so every sampled token starts as a miss. One pass per outcome
// over all the tokens — miss, hit, grow, delta, grow, verified read over
// the delta — so a token's tuples are no warmer in the CPU's caches than
// they are when real traffic comes back to them.
func (l *ladder) storageRows() error {
	if err := l.store.Put(ladderTable, l.et); err != nil {
		return err
	}
	if _, err := l.store.QueryVerified(ladderTable, l.tokens[0]); err != nil {
		return err // builds the Merkle tree now, not inside a timed read
	}
	plain := func(q *ph.EncryptedQuery) error { _, err := l.store.Query(ladderTable, q); return err }
	verified := func(q *ph.EncryptedQuery) error { _, err := l.store.QueryVerified(ladderTable, q); return err }
	pass := func(name string, perUnit float64, from int, read func(*ph.EncryptedQuery) error) error {
		return l.row(name, perUnit, len(l.tokens)-from, func(i int) error { return read(l.tokens[from+i]) })
	}
	var appendNs []float64
	grow := func(batches []*ph.EncryptedTable) error {
		for _, ct := range batches {
			t0 := time.Now()
			if _, _, err := l.store.AppendStamped(ladderTable, ct.Tuples); err != nil {
				return err
			}
			appendNs = append(appendNs, float64(time.Since(t0)))
		}
		return nil
	}
	half := len(l.fresh) / 2
	for _, step := range []func() error{
		func() error { return pass("storage.query_miss_ms", 1e6, 1, plain) }, // tokens[0] built the tree
		func() error { return pass("storage.query_hit_us", 1e3, 0, plain) },
		func() error { return grow(l.fresh[:half]) },
		func() error { return pass("storage.query_delta_us", 1e3, 0, plain) },
		func() error { return grow(l.fresh[half:]) },
		func() error { return pass("storage.query_verified_us", 1e3, 0, verified) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	l.v["storage.append_us"] = median(appendNs) / 1e3
	l.v["storage.query_hit_allocs"] = allocsOf(len(l.tokens), func(i int) { _ = plain(l.tokens[i]) })
	return nil
}

// plannerRows: query's planner on the workload's own conjunctions, where
// it sends any.
func (l *ladder) plannerRows() error {
	if len(l.conjs) == 0 {
		return nil
	}
	tokens := make([][]*ph.EncryptedQuery, len(l.conjs))
	for i, eqs := range l.conjs {
		for _, eq := range eqs {
			q, err := l.scheme.EncryptQuery(eq)
			if err != nil {
				return err
			}
			tokens[i] = append(tokens[i], q)
		}
	}
	fullScans, narrowed := 0, 0.0
	if err := l.row("query.conj_us", 1e3, len(tokens), func(i int) error {
		_, plan, err := l.store.QueryConj(ladderTable, tokens[i])
		if err != nil {
			return err
		}
		for _, st := range plan.Steps {
			switch st.Source {
			case query.SourceScan:
				fullScans++
			case query.SourceNarrow, query.SourceDelta:
				narrowed += ratio(float64(st.Tested), float64(plan.Tuples))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.v["query.full_scans_per_conj"] = float64(fullScans) / float64(len(l.conjs))
	l.v["query.narrowed_frac"] = narrowed / float64(len(l.conjs))
	return nil
}

// floorRow: the floor under every round trip — frame, loopback,
// dispatch — is a List.
func (l *ladder) floorRow() error {
	conn, err := l.e.clients[0].dial.dial(l.e.nodes[0].addr)
	if err != nil {
		return err
	}
	return l.row("server.rtt_floor_us", 1e3, ladderSample, func(int) error {
		_, err := conn.List()
		return err
	})
}
